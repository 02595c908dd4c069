"""The fuzz seeds known to violate an invariant, tracked by the suite.

Strict: the change that fixes one deletes its marker and keeps the case as
a regression test, and a change that promises no behaviour change visibly
leaves every marker as it is.
"""

import pytest

from repro.chaos.fuzz import FUZZ_SYSTEM, FuzzProfile, config_for_case
from repro.chaos.run import run_scripted


@pytest.mark.parametrize(
    "case_seed, profile",
    [
        pytest.param(
            7353800664946477217,
            FuzzProfile(),
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1a"),
            id="1a-all_pairs",
        ),
        pytest.param(
            1623593096556592143,
            FuzzProfile(system=FUZZ_SYSTEM.with_(fd_plane="swim")),
            id="1b-swim",
        ),
    ],
)
def test_known_red_seed(case_seed, profile):
    assert run_scripted(config_for_case(case_seed, profile)).ok
