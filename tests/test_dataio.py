import pytest

from pai import dataio


def test_write_json_bytes_are_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "doc.json"
    dataio.write_json(path, {"b": [1.5, -0.0, 1e-300], "a": {"z": True, "y": None}})
    assert path.read_bytes() == b'{"a": {"y": null, "z": true}, "b": [1.5, -0.0, 1e-300]}\n'


def test_write_json_of_an_unserialisable_payload_creates_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        dataio.write_json(path, {"schema": "pai-report/1", "value": object()})
    assert not path.exists()
