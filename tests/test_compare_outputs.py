"""The CSV sizes of ``tools/compare_outputs.py``, loaded by path: the tool is not part of the package."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _csv(t0, values, dt=0.1):
    return ("t,f\n" + "".join(f"{t0 + i * dt!r},{v!r}\n" for i, v in enumerate(values))).encode()


def test_a_grid_moved_by_one_sample_is_a_shift():
    # one signal on two grids a sample apart: the shift, then deltas on the four shared times only
    old, new = _csv(-144.3, [0.0, 0.25, 1.0, 0.5, 0.0]), _csv(-144.4, [0.0, 0.0, 0.25, 1.0, 0.5])
    shift = "t: shifted by -1 samples, t0 -144.30000000000001 -> -144.40000000000001; 4 shared times of 5 and 5"
    assert compare_outputs.csv_sizes(old, new) == [shift]
    new = _csv(-144.4, [0.0, 0.0, 0.25, 1.001, 0.5])
    assert compare_outputs.csv_sizes(old, new) == [shift, "f: largest |delta| 0.001, 0.001 of the peak 1"]


def test_rows_pair_by_position_without_a_time_column():
    old = b"z,peak\n1,2\n2,1\n"
    assert compare_outputs.csv_sizes(old, b"z,peak\n1,2\n2,1.5\n") == ["peak: largest |delta| 0.5, 0.25 of the peak 2"]
    assert compare_outputs.csv_sizes(old, b"z,peak\n1,2\n") == ["rows differ"]
