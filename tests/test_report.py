"""Canonical serialization: stable bytes, fixed float text, CSV tables,
all written through emit_report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from urnlab.errors import InvalidArgumentError
from urnlab.report import canonical_json, emit_report, format_float, provenance


def test_format_float_roundtrips():
    for v in [0.1, math.pi, 1e-17, 3.0, -2.5e300, 1.0 / 3.0]:
        assert float(format_float(v)) == v
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_rejects_non_finite():
    for v in [math.inf, -math.inf, math.nan]:
        with pytest.raises(InvalidArgumentError):
            format_float(v)


def test_canonical_json_layout():
    text = canonical_json({"b": [1, 2.5], "a": None})
    assert text == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}'


def test_canonical_json_key_order_independent():
    a = canonical_json({"x": 1, "y": {"q": [True, False]}, "z": "√n"})
    b = canonical_json({"z": "√n", "y": {"q": [True, False]}, "x": 1})
    assert a == b
    assert json.loads(a) == {"x": 1, "y": {"q": [True, False]}, "z": "√n"}


def test_canonical_json_empty_containers():
    assert canonical_json({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}'


def test_canonical_json_accepts_numpy():
    text = canonical_json({"m": np.arange(4.0).reshape(2, 2),
                           "k": np.int64(3), "v": np.float64(0.5)})
    assert json.loads(text) == {"m": [[0, 1], [2, 3]], "k": 3, "v": 0.5}


def test_canonical_json_rejects_odd_values():
    with pytest.raises(InvalidArgumentError):
        canonical_json({"s": {1, 2}})
    with pytest.raises(InvalidArgumentError):
        canonical_json({1: "x"})
    with pytest.raises(InvalidArgumentError):
        canonical_json({"v": float("nan")})


@dataclasses.dataclass(frozen=True)
class Group:
    value: complex
    block_sizes: tuple


@dataclasses.dataclass(frozen=True)
class Profile:
    groups: tuple
    rho: float
    matrix: np.ndarray
    note: object = None


@dataclasses.dataclass(frozen=True)
class Renamed:
    Sigma: np.ndarray

    def to_dict(self):
        return {"sigma": self.Sigma}


def test_canonical_json_encodes_dataclasses_by_field():
    p = Profile(groups=(Group(1.5 + 0j, (2, 1)), Group(0.5 - 1j, (1,))),
                rho=0.5, matrix=np.eye(2))
    assert json.loads(canonical_json(p)) == {
        "groups": [{"value": [1.5, 0], "block_sizes": [2, 1]},
                   {"value": [0.5, -1], "block_sizes": [1]}],
        "rho": 0.5, "matrix": [[1, 0], [0, 1]], "note": None}
    # a field is encoded as the plain structure it holds would be
    assert canonical_json(Group(1.5 + 0j, (2, 1))) == canonical_json(
        {"value": [1.5, 0.0], "block_sizes": [2, 1]})


def test_canonical_json_encodes_complex_values_as_pairs():
    assert canonical_json(1.5 - 2j) == "[\n  1.5,\n  -2\n]"
    assert canonical_json(np.complex128(0.25 + 1j)) == canonical_json([0.25, 1.0])
    assert json.loads(canonical_json({
        "z": np.complex64(2 + 0.5j),
        "v": np.array([1 + 1j, 0.5 - 0.25j]),
        "m": np.array([[1j, 2.0]]),
    })) == {"z": [2, 0.5], "v": [[1, 1], [0.5, -0.25]],
            "m": [[[0, 1], [2, 0]]]}
    with pytest.raises(InvalidArgumentError):
        canonical_json(complex(math.inf, 0.0))


def test_canonical_json_prefers_to_dict_over_fields():
    r = Renamed(np.eye(1))
    assert json.loads(canonical_json(r)) == {"sigma": [[1]]}
    assert json.loads(canonical_json({"r": [r]})) == {"r": [{"sigma": [[1]]}]}


def test_canonical_json_refuses_dataclass_classes():
    for cls in (Group, Renamed):
        with pytest.raises(InvalidArgumentError, match="class"):
            canonical_json({"k": cls})


def csv_bytes(tmp_path, table):
    path = tmp_path / "t.csv"
    emit_report(table, "csv", str(path))
    return path.read_bytes()


def test_trajectory_csv_rows(tmp_path):
    table = (["n", "theta_1"], [[0, 0.5], [2, 0.25]])
    assert csv_bytes(tmp_path, table) == b"n,theta_1\n0,0.5\n2,0.25\n"


def test_urn_csv_rows(tmp_path):
    # counts stay integers; the composition prints as floats
    table = (["n", "Y_1", "Y_2", "N_1", "N_2"],
             [[1] + np.array([1.0, 2.0]).tolist() + [0, np.int64(1)]])
    assert csv_bytes(tmp_path, table) == b"n,Y_1,Y_2,N_1,N_2\n1,1,2,0,1\n"


def test_gauss_csv_rows(tmp_path):
    table = (["t", "G_1", "G_2"], [[1.0, 0.0, 1.5]])
    assert csv_bytes(tmp_path, table) == b"t,G_1,G_2\n1,0,1.5\n"


def test_flow_csv_rows(tmp_path):
    table = (["s", "f", "theta_1", "theta_2"], [[0.0, 0.0, 0.5, 0.25]])
    assert csv_bytes(tmp_path, table) == b"s,f,theta_1,theta_2\n0,0,0.5,0.25\n"


def test_matrix_csv_rows(tmp_path):
    assert csv_bytes(tmp_path, np.eye(2)) == b"1,0\n0,1\n"


def test_empty_tables_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError, match="no rows"):
        emit_report((["n", "theta_1"], []), "csv", str(tmp_path / "t.csv"))


def test_emit_report_json_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    emit_report({"a": 1.5, "s": "√n"}, "json", str(a))
    emit_report({"s": "√n", "a": 1.5}, "json", str(b))
    data = a.read_bytes()
    assert data == '{\n  "a": 1.5,\n  "s": "√n"\n}\n'.encode("utf-8")
    assert data == b.read_bytes()


def test_emit_report_unwraps_to_dict(tmp_path):
    class Box:
        def to_dict(self):
            return {"v": 2}

    path = tmp_path / "r.json"
    emit_report(Box(), "json", str(path))
    assert json.loads(path.read_text()) == {"v": 2}


def test_emit_report_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    emit_report(np.eye(2), "csv", str(path))
    assert path.read_bytes() == b"1,0\n0,1\n"
    with pytest.raises(InvalidArgumentError, match="needs a matrix"):
        emit_report(np.zeros(3), "csv", str(path))


def test_emit_report_unsupported_format(tmp_path):
    with pytest.raises(InvalidArgumentError, match="unsupported"):
        emit_report({}, "xml", str(tmp_path / "r.xml"))


def test_emit_report_io_error_propagates(tmp_path):
    with pytest.raises(OSError):
        emit_report({}, "json", str(tmp_path / "missing" / "r.json"))


def test_provenance_fields():
    p = provenance("abc", 7)
    assert p["tool"] == "urnlab"
    assert p["config_digest"] == "abc" and p["seed"] == 7
    assert isinstance(p["tool_version"], str) and p["tool_version"]
