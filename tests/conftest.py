import re

import numpy as np
import pytest

from odowin import presets


@pytest.fixture(scope="session")
def ds_z_carry():
    # 2, 8, 32, 128, 512, 2048: mixed radix 2 then 4
    return presets.domains("z-carry", 6)


@pytest.fixture(scope="session")
def ds_z_pow2():
    return presets.domains("z-pow2", 6)


@pytest.fixture(scope="session")
def ds_z_dec():
    return presets.domains("z-dec", 3)


@pytest.fixture(scope="session")
def ds_z2():
    return presets.domains("z2-pow2", 6)


@pytest.fixture(scope="session")
def ds_heis():
    return presets.domains("heis-pow2", 4)


@pytest.fixture(scope="session")
def w_irr():
    return presets.build_preset_window("z-irregular")


@pytest.fixture(scope="session")
def w_fiber():
    return presets.build_preset_window("z-fiber")


@pytest.fixture(scope="session")
def w_k(w_fiber):
    from odowin.windows import build_k

    return {k: build_k(w_fiber, k, 1) for k in (1, 2, 3)}


@pytest.fixture(scope="session")
def w_kt(w_k):
    from odowin.windows import build_ktilde

    return {k: build_ktilde(w_k[k], "dovetail") for k in (1, 2, 3)}


@pytest.fixture(scope="session")
def w_z2():
    return presets.build_preset_window("z2")


@pytest.fixture(scope="session")
def w_heis():
    return presets.build_preset_window("heis")


@pytest.fixture(scope="session")
def w_heis_k2(w_heis):
    from odowin.windows import build_k

    return build_k(w_heis, 2, 1)


@pytest.fixture(scope="session")
def w_heis_kt2(w_heis_k2):
    from odowin.windows import build_ktilde

    return build_ktilde(w_heis_k2, "dovetail")


@pytest.fixture(scope="session")
def w_heis_kt1(w_heis):
    # k = 1 at sector level 1 makes level 2 a designated level: a punctured Heisenberg window
    from odowin.windows import build_k, build_ktilde

    return build_ktilde(build_k(w_heis, 1, 1), "dovetail")


@pytest.fixture(scope="session")
def malformed_windows(w_fiber, w_kt):
    """Edits of the z-fiber ktilde k=3 window file (and one of the perf file) that
    describe no valid window, or no single one."""
    from odowin.windows import CLS_IN, serialize_window

    text = serialize_window(w_kt[3])
    # The level-4 child with digit index 0 of an interior level-3 cylinder has
    # that cylinder's rank, and inherits its class.
    inherited = int(np.flatnonzero(w_kt[3].tree.class_by_rank[2] == CLS_IN)[0])
    edits = {
        "no-sectors": re.sub(r"\[sectors\]\n[^\[]*", "", text),
        "puncture-out-of-range": re.sub(
            r"(\[punctures\]\nlevel \d+ = )\d+", r"\g<1>999999999999", text
        ),
        "no-class": re.sub(r"^class = \d+\n", "", text, flags=re.M),
        "k-zero": re.sub(r"^k = \d+$", "k = 0", text, flags=re.M),
        "kind-perf": re.sub(r"^kind = \w+$", "kind = perf", text, flags=re.M),
        "level-header-no-number": text.replace("[level 2]", "[level ]"),
        "puncture-no-level": re.sub(r"(\[punctures\]\n)level \d+ =", r"\g<1>level =", text),
        "delta-zero-denominator": re.sub(r"^delta = .*$", "delta = 1/0", text, flags=re.M),
        "no-group-key": re.sub(r"^group = .*\n", "", text, flags=re.M),
        # level 1 lies at the sector level, which leaves no sector to compare with
        "class-at-sector-level": re.sub(r"^class = 1$", "class = 2", text, count=1, flags=re.M),
        "puncture-inherited-interior": re.sub(
            r"^level 4 = \d+$", f"level 4 = {inherited}", text, flags=re.M
        ),
        # no level-1 cylinder lies in sector 4
        "k-above-every-sector": re.sub(r"^k = 3$", "k = 4", text, flags=re.M),
        # level 6 becomes a designated (class-k) level with no puncture
        "designated-level-unpunctured": re.sub(
            r"(\[level 6\]\n(?:[^\[\n]*\n)*?)class = 2$", r"\g<1>class = 3", text, flags=re.M
        ),
        # a repeated key or section, or a line that is not key = value, has no one reading
        "cap-repeated": text.replace("cap = 6\n", "cap = 6\ncap = 5\n"),
        "boundary-repeated": re.sub(
            r"(\[level 2\]\n(?:[^\[\n]*\n)*?)(boundary = .*\n)", r"\1\2\2", text
        ),
        "level-repeated": re.sub(r"(\[level 2\]\n[^\[]*)", r"\1\1", text),
        "stray-line": text.replace("[sectors]\n", "[sectors]\ngarbage\n"),
        "unknown-section": text + "[notes]\nseen = yes\n",
        "level-beyond-cap": text + "[level 7]\nalphabet = 0\n",
        "e-rule-unknown": text.replace("e_rule = dovetail", "e_rule = banana"),
        "e-rule-on-perf": serialize_window(w_fiber).replace("e_rule = none", "e_rule = strict"),
        # e_rule is required like every other header key, even where it is none
        "e-rule-missing": serialize_window(w_fiber).replace("e_rule = none\n", ""),
        "cap-zero": text.replace("cap = 6\n", "cap = 0\n"),
        # level 1 splits 0..7 into interior 0;2, exterior 1 and boundary 3;4;5;6;7
        "two-exterior-digits": text.replace("interior = 0;2\nexterior = 1\n",
                                            "interior = 0\nexterior = 1;2\n"),
        "empty-interior": text.replace("interior = 0;2\nexterior = 1\nboundary = 3;",
                                       "interior = \nexterior = 1\nboundary = 0;2;3;"),
        "digit-outside-alphabet": text.replace("= 3;4;5;6;7\n", "= 3;4;5;6;7;8\n"),
        "digit-listed-twice": text.replace("= 3;4;5;6;7\n", "= 2;3;4;5;6;7\n"),
        "digit-left-out": text.replace("= 3;4;5;6;7\n", "= 3;4;5;6\n"),
        "boundary-out-of-order": text.replace("= 3;4;5;6;7\n", "= 7;6;5;4;3\n"),
        # a key or section that no window reads
        "unknown-header-key": text.replace("e_rule = dovetail\n",
                                           "e_rule = dovetail\ncolour = red\n"),
        "unknown-level-key": text.replace("[level 2]\n", "[level 2]\nnote = kept\n"),
        "default-section": text.replace("[level 1]\n", "[DEFAULT]\nclass = 1\n[level 1]\n"),
        # a number not written as the window writes it
        "delta-not-in-lowest-terms": text.replace("delta = 104/1\n", "delta = 208/2\n"),
        "k-leading-zero": text.replace("k = 3\n", "k = 03\n"),
        "class-plus-sign": re.sub(r"^class = 1$", "class = +1", text, count=1, flags=re.M),
        "moduli-spaced": text.replace("moduli = 8,48,", "moduli = 8, 48,"),
        "puncture-level-leading-zero": re.sub(r"^level (\d+) = ", r"level 0\1 = ", text,
                                              flags=re.M),
        # the builder's rules on a_schedule and epsilon
        "a-schedule-short": re.sub(r"^a_schedule = .*$", "a_schedule = 1", text, flags=re.M),
        "a-schedule-below-three": text.replace("a_schedule = 3,3,3", "a_schedule = 3,2,3"),
        "epsilon-above-one": text.replace("epsilon = none", "epsilon = 5/1"),
        "delta-none": text.replace("delta = 104/1\n", "delta = none\n"),
        "delta-negative": text.replace("delta = 104/1\n", "delta = -5/1\n"),
        # keys are case-sensitive
        "cap-upper-case": text.replace("cap = 6\n", "CAP = 6\n"),
        # text that reads as the window but is not the text it writes
        "comment-line": text.replace("[level 1]\n", "# hand note\n[level 1]\n"),
        "blank-line": text.replace("[level 1]\n", "\n[level 1]\n"),
        "trailing-spaces": text.replace("cap = 6\n", "cap = 6  \n"),
        "header-keys-swapped": re.sub(r"^(group = .*\n)(kind = .*\n)", r"\2\1", text, flags=re.M),
        "levels-swapped": re.sub(r"(\[level 2\]\n[^\[]*)(\[level 3\]\n[^\[]*)", r"\2\1", text),
        "no-final-newline": text.removesuffix("\n"),
        "cap-unspaced": text.replace("cap = 6\n", "cap=6\n"),
        "cap-colon": text.replace("cap = 6\n", "cap: 6\n"),
    }
    assert len(set(edits.values())) == len(edits)
    assert text not in edits.values()
    return edits
