"""GridFunction container and CSV persistence."""

import io

import numpy as np
import pytest

from mwright.errors import NonUniformGrid
from mwright.gridfn import GridFunction


def test_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.zeros(3))


def test_spacing_uniform():
    g = GridFunction(np.linspace(0.0, 1.0, 11), np.zeros(11))
    assert g.spacing == pytest.approx(0.1)
    bad = GridFunction(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(NonUniformGrid):
        bad.spacing


def test_require_start_at_zero():
    g = GridFunction(np.linspace(1.0, 2.0, 5), np.zeros(5))
    with pytest.raises(NonUniformGrid):
        g.require_uniform_from_zero()


def test_csv_roundtrip_exact(tmp_path):
    xs = np.linspace(0.0, 1.0, 7)
    ys = np.sin(xs) * 1e-7 + 0.1234567890123456789
    g = GridFunction(xs, ys, "alpha=1 beta=0.5")
    path = tmp_path / "g.csv"
    g.to_csv(str(path))
    back = GridFunction.from_csv(str(path))
    assert back.meta == "alpha=1 beta=0.5"
    assert np.array_equal(back.xs, g.xs)
    assert np.array_equal(back.ys, g.ys)


def test_csv_buffer_api():
    g = GridFunction(np.array([0.0, 0.5]), np.array([1.0, 2.0]), "m")
    text = g.to_csv_string()
    assert text.splitlines()[0] == "# m"
    back = GridFunction.from_csv(io.StringIO(text))
    assert np.array_equal(back.ys, g.ys)


def test_csv_round_trip_through_a_path(tmp_path):
    g = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.0, 3e-7]),
                     "p")
    path = tmp_path / "g.csv"
    g.to_csv(path)
    back = GridFunction.from_csv(path)
    assert back.meta == "p"
    assert back.xs.tobytes() == g.xs.tobytes()
    assert back.ys.tobytes() == g.ys.tobytes()


def test_csv_file_objects_stay_open(tmp_path):
    g = GridFunction(np.array([0.0, 0.5]), np.array([1.0, 2.0]), "m")
    path = tmp_path / "g.csv"
    with open(path, "w") as fh:
        g.to_csv(fh)
        assert not fh.closed
        fh.write("\n")
    with open(path) as fh:
        back = GridFunction.from_csv(fh)
        assert not fh.closed
    assert np.array_equal(back.ys, g.ys)
