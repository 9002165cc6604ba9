"""Shipped group/chain/window presets used by the demos and the test suite.

Chains are congruence chains; window presets pin every builder input so the
resulting artifacts are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from .expansion import DomainSequence
from .groups import SubgroupChain, geometric_moduli, group_by_name
from .windows import Window, build_kind, build_perf

CHAINS: dict[str, tuple[str, list[int]]] = {
    # name: (group, raw moduli)
    "z-carry": ("Z", geometric_moduli(2, 4, 8)),        # 2, 8, 32, ...
    "z-pow2": ("Z", geometric_moduli(2, 2, 24)),        # 2, 4, 8, ...
    "z-dec": ("Z", geometric_moduli(10, 10, 6)),        # 10, 100, ...
    "z-fiber": ("Z", [8, 48, 288, 1440, 7200, 36000]),
    "z2-pow2": ("Z2", geometric_moduli(2, 2, 12)),
    "heis-pow2": ("Heisenberg", geometric_moduli(2, 2, 6)),
    # Window levels for the Heisenberg group need fast modulus growth: the
    # carry spread at level n scales like m_{n-1}·m_n, so two levels keep the
    # alphabets (and the carry automaton) small.
    "heis-window": ("Heisenberg", [2, 8]),
}


def chain(name: str) -> SubgroupChain:
    group_name, moduli = CHAINS[name]
    return SubgroupChain(group_by_name(group_name), moduli)


def domains(name: str, levels: int) -> DomainSequence:
    return DomainSequence.build(chain(name), levels)


WINDOW_PRESETS: dict[str, dict] = {
    # Boundary-heavy window: epsilon = 1/2 forces telescoping of the raw chain.
    "z-irregular": {"chain": "z-pow2", "cap": 3, "epsilon": Fraction(1, 2)},
    # Deep window for fiber analysis: six levels, small alphabets.
    "z-fiber": {"chain": "z-fiber", "cap": 6, "delta": Fraction(104)},
    # Plane window for rendering.
    "z2": {"chain": "z2-pow2", "cap": 3, "delta": Fraction(60)},
    # Nonabelian window.
    "heis": {"chain": "heis-window", "cap": 2, "delta": Fraction(40)},
}


def build_preset_window(
    name: str,
    kind: str = "perf",
    k: int = 1,
    sector_level: int = 1,
    e_rule: str = "dovetail",
) -> Window:
    params = WINDOW_PRESETS[name]
    group_name, moduli = CHAINS[params["chain"]]
    base = build_perf(
        group_by_name(group_name),
        moduli,
        cap=params["cap"],
        a_schedule=params.get("a", 3),
        epsilon=params.get("epsilon"),
        delta=params.get("delta"),
    )
    return build_kind(base, kind, k, sector_level, e_rule)
