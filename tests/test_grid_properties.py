"""Property tests of the grid plumbing: normalization and the wrap into the ball.

``GridWavefunction.normalized`` scales by multiplying the float view by
1 / norm; its amplitudes and profile values must equal numpy's a / norm
as numbers (a signed zero compares equal to its opposite) over
amplitudes from subnormal to 1e150 in magnitude.  ``wrap_to_ball`` must
keep the rotation of every point up to 10 pi, checked against scipy's
``Rotation.from_rotvec``.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from molrest.lie_so3 import exp_map
from molrest.quantum import GridWavefunction, LineGrid, wrap_to_ball

LINE = LineGrid.make(-1.0, 1.0, 64)
# |a| from 1e-323 (subnormal) to 1e150, whose squares stay in the float range
MAGNITUDES = st.integers(-323, 150).map(lambda e: 10.0 ** e)
AMPLITUDES = st.builds(lambda re, im, scale: complex(re * scale, im * scale),
                       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), MAGNITUDES)
STATES = hnp.arrays(complex, LINE.size, elements=AMPLITUDES)
AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@given(STATES, STATES)
def test_normalized_equals_numpy_division(amps, off_grid):
    scale = GridWavefunction(grid=LINE, amplitudes=amps).norm()
    assume(scale > 0.0)
    kept = amps.copy(), off_grid.copy()
    psi = GridWavefunction.normalized(LINE, amps, lambda points: off_grid)
    assert psi.amplitudes.dtype == complex and psi.amplitudes.shape == amps.shape
    assert np.array_equal(psi.amplitudes, amps / scale)
    values = psi.profile(LINE.points)
    assert values.dtype == complex and values.shape == off_grid.shape
    assert np.array_equal(values, off_grid / scale)
    # neither the input nor what the profile returned is scaled in place
    assert np.array_equal(amps, kept[0]) and np.array_equal(off_grid, kept[1])


@given(AXES, st.floats(0.0, 10.0 * np.pi))
def test_wrap_keeps_the_rotation(axis, angle):
    omega = angle * np.asarray(axis) / np.linalg.norm(axis)
    wrapped = wrap_to_ball(omega[None])[0]
    assert np.linalg.norm(wrapped) <= np.pi + 1e-14
    assert np.abs(exp_map(wrapped) - Rotation.from_rotvec(omega).as_matrix()).max() <= 1e-14
