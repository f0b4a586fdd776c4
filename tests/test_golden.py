"""Golden equivalence: the forecast and every parameter gradient of a seeded
tiny model must match the recorded reference within 1e-10 of each array's
max-abs value. This is the guard for changes that reorder floating-point
sums; make_golden.py documents how the reference was produced."""

import numpy as np
import pytest

from make_golden import CASES, GOLDEN_PATH, run

REL_TOL = 1e-10


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_recorded_reference(case):
    golden = np.load(GOLDEN_PATH)
    expected = {k.split("/", 1)[1]: golden[k] for k in golden.files if k.startswith(case + "/")}
    got = run(case)
    assert sorted(got) == sorted(expected)
    for key, ref in expected.items():
        scale = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
        err = float(np.max(np.abs(got[key] - ref)))
        assert err <= REL_TOL * scale, f"{case}/{key}: max-abs error {err:.3e} vs scale {scale:.3e}"
