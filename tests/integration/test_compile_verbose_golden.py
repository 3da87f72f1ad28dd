"""``repro compile --verbose`` against its golden output.

The CT row and ``FT[nf]`` lines are a view of the step table
(``repro.core.closures.table_view``); the goldens were captured from the
FT derivation that view replaced, so a change in either the compiler or
the view shows as a line diff here.
"""

import os

import pytest

from repro.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")

CHAINS = {
    "north_south": "vpn,monitor,firewall,loadbalancer",
    "west_east": "ids,monitor,loadbalancer",
    "monitor_nat_vpn": "monitor,nat,vpn",
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_compile_verbose_matches_golden(name, capsys):
    assert main(["compile", "--chain", CHAINS[name], "--verbose"]) == 0
    path = os.path.join(GOLDEN, f"compile_verbose_{name}.txt")
    with open(path) as handle:
        assert capsys.readouterr().out == handle.read()
