import re

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
def malformed_windows(w_kt):
    """Edits of the z-fiber ktilde k=3 window file that describe no valid window."""
    from odowin.windows import serialize_window

    text = serialize_window(w_kt[3])
    edits = {
        "no-sectors": re.sub(r"\[sectors\]\n[^\[]*", "", text),
        "puncture-out-of-range": re.sub(
            r"(\[punctures\]\nlevel \d+ = )\d+", r"\g<1>999999999999", text
        ),
        "no-class": re.sub(r"^class = \d+\n", "", text, flags=re.M),
        "k-zero": re.sub(r"^k = \d+$", "k = 0", text, flags=re.M),
        "kind-perf": re.sub(r"^kind = \w+$", "kind = perf", text, flags=re.M),
    }
    assert text not in edits.values()
    return edits
