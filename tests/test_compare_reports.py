"""tools/compare_reports.py compares a warning by all but its line number."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location("compare_reports",
                                               ROOT / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

WARNING = (b"src/molrest/lie_so3.py:%d: RuntimeWarning: %s\n"
           b"  theta = 2.0 * np.arctan2(np.linalg.norm(v, axis=-1), w)\n"
           b"molrest: error: Eigenvalues did not converge\n")


def test_a_moved_warning_compares_equal():
    assert (compare_reports.masked(WARNING % (174, b"overflow encountered in square"))
            == compare_reports.masked(WARNING % (181, b"overflow encountered in square")))


def test_a_changed_warning_message_differs():
    assert (compare_reports.masked(WARNING % (174, b"overflow encountered in square"))
            != compare_reports.masked(WARNING % (174, b"invalid value encountered in divide")))


def test_other_lines_keep_their_numbers():
    # only a warning line loses its number: an error naming a trajectory line keeps it
    for text in (b"molrest: error: line 12: truncated frame\n", b"src/molrest/cli.py:12: x\n"):
        assert compare_reports.masked(text) == text
