"""The extraction map is canonical on random systems, not only on three fixtures.

Every frame the ``systems`` strategy of ``test_roundtrip_properties``
draws (3-12 nuclei, 0-4 electrons, both mode-basis paths, angles up to
pi, centre-of-mass offsets and boosts up to 100) goes through the
central-difference ``brackets`` of ``test_canonical_brackets``, and
every bracket that test checks must hold.

The central difference with step h = 1e-5 max(1, |z|) has an error of
its own, which grows with the coordinates and with the conditioning of
the frame: on three nearly collinear nuclei it reached 3.2e-4 s, with
s = max(1, max|z|, max|L|), and fell as h^2.  So each block's tolerance
is REL_TOL s plus three times the largest change of the block between
steps h and 2h.  That change is three times an h^2 error; the factor
also covers round-off, which grows as 1/h.  Over 9000 random examples
(25943 frames) the largest deviation beyond the second term was
4.3e-9 s; REL_TOL = 1e-7 leaves a factor of 20.  The mutation
a_inv -> I in ``extract_internal`` does not move with the step, and
the suite fails on it.
"""

import numpy as np
from hypothesis import given

from molrest.frames import BLOCKS, analyze
from test_canonical_brackets import REL_STEP, assert_canonical, brackets
from test_roundtrip_properties import systems

REL_TOL = 1e-7
# {omega, L} is checked only this far inside the antipode, where omega jumps
SEAM_MARGIN = 1e-2


@given(systems())
def test_extraction_map_is_canonical_on_random_systems(system):
    mol, basis, frames = system
    for cfg in frames:
        bracket, sl = brackets(mol, basis, cfg)
        doubled, _ = brackets(mol, basis, cfg, 2.0 * REL_STEP)
        state = analyze(mol, basis, cfg)
        scale = max(1.0, *(np.abs(getattr(cfg, name)).max(initial=0.0) for name in BLOCKS),
                    np.abs(state.angular_momentum).max())
        inside = np.linalg.norm(state.frame.orientation) < np.pi - SEAM_MARGIN
        assert_canonical(bracket, sl, state, REL_TOL * scale, spread=np.abs(doubled - bracket),
                         with_omega=inside)
