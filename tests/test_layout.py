"""A ratchet on the module layout, so the daemon stays apart.

``GroupRuntime`` was once a 1 350-line class in a 1 850-line module that
branched on the FD plane at eighteen sites.  It is now wiring over three
components (``core/membership.py``, ``core/cells.py``, ``lease/server.py``)
and one ``FdPlane`` contract; these checks keep it that way.  Parsed, not
imported: the rules are about the source text.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
MAX_LINES = 800
#: Lines of Python under ``src/``.  Raised only by editing it here, in the
#: diff that needs the room; lowered when the tree is 150 lines under it.
SRC_LINES_CEILING = 17_944


def _module_sizes():
    sizes = {
        str(path.relative_to(PACKAGE)): len(path.read_text().splitlines())
        for path in PACKAGE.rglob("*.py")
    }
    assert len(sizes) > 50  # the walk found the package at all
    return sizes


def test_src_stays_under_its_line_ceiling():
    total = sum(_module_sizes().values())
    assert total <= SRC_LINES_CEILING
    assert total > SRC_LINES_CEILING - 150, "lower the ceiling: the tree shrank"


def test_no_module_outgrows_the_limit():
    too_long = {name: size for name, size in _module_sizes().items() if size > MAX_LINES}
    assert too_long == {}


def test_the_service_decides_the_plane_once():
    """``core/service.py`` may name swim to import the plane, to validate
    ``ServiceConfig.fd_plane`` and to construct it — and reads no flag."""
    source = (PACKAGE / "core" / "service.py").read_text()
    assert not re.search(r"_swim\b", source)
    allowed = re.compile(
        r"repro\.fd\.swim|SwimFdPlane\(|\"swim\"|swim_stream|\.fd\.swim\""
    )
    stray = [
        line.strip()
        for line in source.splitlines()
        if "swim" in line.lower() and not allowed.search(line)
    ]
    assert stray == []
    assert source.count("SwimFdPlane(") == 1  # one construction site
    assert sum("swim" in line.lower() for line in source.splitlines()) <= 10


#: Settings that ServiceConfig / ExperimentConfig declare, once.
SHARED_SETTINGS = {
    "algorithm", "fd_plane", "fd_variant", "detection_time", "n_lease_clients",
    "lease_transfer_ratio", "transfer_ratio", "n_nodes", "link_loss_prob",
}
#: Dataclasses that hold one of those names without copying a setting: the
#: QoS triple itself, the simulated network's size, a join command's own
#: algorithm, and a live cluster's observed report.
NOT_COPIES = {"FDQoS", "NetworkConfig", "Join", "_JoinSpec", "ClusterReport"}


def test_settings_are_declared_once():
    """Chaos, fuzz and live configs compose ExperimentConfig / ServiceConfig
    instead of re-declaring their fields."""
    declaring = {
        node.name: {
            statement.target.id
            for statement in node.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        }
        & SHARED_SETTINGS
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)
    }
    copies = {
        name: fields
        for name, fields in declaring.items()
        if fields and name not in {"ServiceConfig", "ExperimentConfig", *NOT_COPIES}
    }
    assert copies == {}
    assert NOT_COPIES <= set(declaring), "drop the entry: the class is gone"


def test_components_are_slotted_and_do_not_import_the_service():
    for name in ("lease/server.py", "core/membership.py", "core/cells.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        imported = {
            alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not [
            target for target in imported if target.startswith("repro.core.service")
        ], name
        assert "__slots__" in {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }, name
