import json

import numpy as np
import pytest

from cinegaze.errors import FormatError, InputError
from cinegaze.gridio import (read_float_grid, read_map, read_pgm16,
                             write_float_grid, write_map, write_pgm16)


class TestFloatGrid:
    def test_round_trip_exact_at_float32(self, tmp_path, rng):
        grid = rng.random((7, 11)).astype(np.float32).astype(float)
        path = tmp_path / "m.f32"
        write_float_grid(path, grid)
        assert np.array_equal(read_float_grid(path), grid)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.f32"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError):
            read_float_grid(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "m.f32"
        write_float_grid(path, rng.random((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_float_grid(path)


class TestPgm16:
    def test_round_trip_within_quantization(self, tmp_path, rng):
        grid = rng.random((9, 5)) * 3.7
        path = tmp_path / "m.pgm"
        write_pgm16(path, grid)
        back = read_pgm16(path)
        scale = json.loads((tmp_path / "m.pgm.json").read_text())["scale"]
        assert np.abs(back - grid).max() <= 0.5 / scale + 1e-12

    def test_sidecar_records_scale(self, tmp_path):
        grid = np.array([[0.0, 2.0], [1.0, 0.5]])
        path = tmp_path / "m.pgm"
        write_pgm16(path, grid)
        sidecar = json.loads((tmp_path / "m.pgm.json").read_text())
        assert sidecar["scale"] == pytest.approx(65535 / 2.0)
        assert (sidecar["width"], sidecar["height"]) == (2, 2)

    def test_all_zero_grid(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm16(path, np.zeros((3, 3)))
        assert not read_pgm16(path).any()

    def test_header_is_plain_pgm(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm16(path, np.ones((2, 4)))
        assert path.read_bytes().startswith(b"P5\n4 2\n65535\n")

    def test_negative_values_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_pgm16(tmp_path / "m.pgm", np.array([[-1.0]]))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(FormatError):
            read_pgm16(path)

    def test_sample_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 2\n65535\n" + bytes(6))
        with pytest.raises(FormatError):
            read_pgm16(path)


    @pytest.mark.parametrize("header,payload", [
        pytest.param(b"P5\nabc 2\n65535\n", bytes(16), id="not_a_number"),
        pytest.param(b"P5\n4 2.5\n65535\n", bytes(16), id="not_an_integer"),
        pytest.param(b"P5\n0 2\n65535\n", bytes(16), id="zero_width"),
        pytest.param(b"P5\n4 -2\n65535\n", bytes(16), id="negative_height"),
        pytest.param(b"P5\n4 2\n+65535\n", bytes(16), id="signed_maxval"),
        pytest.param(b"P5\n4 2", b"", id="truncated"),
    ])
    def test_bad_header_field_rejected(self, tmp_path, header, payload):
        path = tmp_path / "m.pgm"
        path.write_bytes(header + payload)
        with pytest.raises(FormatError):
            read_pgm16(path)

    @pytest.mark.parametrize("sidecar", [
        pytest.param("{}", id="no_scale"),
        pytest.param('{"scale": null}', id="null"),
        pytest.param('{"scale": -2}', id="negative"),
        pytest.param('{"scale": 0}', id="zero"),
        pytest.param('{"scale": "nan"}', id="nan_string"),
        pytest.param('{"scale": "2.0"}', id="number_string"),
        pytest.param('{"scale": true}', id="boolean"),
        pytest.param('{"scale": NaN}', id="nan"),
        pytest.param('{"scale": Infinity}', id="infinity"),
        pytest.param('{"scale": 1' + "0" * 400 + "}", id="integer_beyond_float"),
        pytest.param("[2.0]", id="list"),
        pytest.param("2.0", id="bare_number"),
        pytest.param("not json", id="not_json"),
        pytest.param("", id="empty"),
    ])
    def test_bad_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "m.pgm"
        write_pgm16(path, np.ones((2, 4)))
        (tmp_path / "m.pgm.json").write_text(sidecar)
        with pytest.raises(FormatError):
            read_pgm16(path)

    def test_integer_scale_accepted(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm16(path, np.ones((2, 4)))
        (tmp_path / "m.pgm.json").write_text('{"scale": 65535}')
        assert np.array_equal(read_pgm16(path), np.ones((2, 4)))


class TestDispatch:
    def test_by_extension(self, tmp_path, rng):
        grid = rng.random((3, 3)).astype(np.float32).astype(float)
        f32 = tmp_path / "a.f32"
        pgm = tmp_path / "a.pgm"
        write_map(f32, grid)
        write_map(pgm, grid)
        assert np.array_equal(read_map(f32), grid)
        assert np.abs(read_map(pgm) - grid).max() < 1e-4

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_map(tmp_path / "a.bmp", np.ones((2, 2)))
        with pytest.raises(FormatError):
            read_map(tmp_path / "a.bmp")
