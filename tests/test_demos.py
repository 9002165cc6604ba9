"""The demos print their committed output; demo 03 reproduces the committed images."""

import contextlib
import io
import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    # Run a copy, so the demos that write images never touch the committed ones.
    copy = tmp_path / "demos"
    shutil.copytree(DEMOS, copy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(copy / script), run_name="__main__")
    assert out.getvalue() == (DEMOS / "expected" / f"{Path(script).stem}.txt").read_text()
    if script.startswith("03_"):
        for image in ("plane_identity.pgm", "plane_boundary_shift.pgm"):
            assert (copy / image).read_bytes() == (DEMOS / image).read_bytes()
