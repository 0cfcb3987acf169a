"""Command-line interface: verify suites, simulation runs, Clark dumps."""

import csv
import json
import subprocess
import tracemalloc

import numpy as np
import pytest

from innerclt import _csvrows, clark, cli
from innerclt.blaschke import monomial
from innerclt.clark import BoundaryAtomSolver
from innerclt.cli import _write_samples_csv, coefficients_from_config, main
from innerclt.clt import BLOCK, KS_MIN_SAMPLES, simulate
from innerclt.variance import CoefficientSequence

MAP_DEG2_HALF = {"zeros": [[0.0, 0.0], [0.5, 0.0]], "rotation": [1.0, 0.0]}
MAP_Z2 = {"zeros": [[0.0, 0.0], [0.0, 0.0]]}


class TestCoefficientConfig:
    def test_ones_default(self):
        a = coefficients_from_config({}, default_length=5)
        assert len(a) == 5

    def test_explicit(self):
        a = coefficients_from_config(
            {"kind": "explicit", "values": [[1.0, 0.0], [0.0, 2.0]]}, 9)
        assert np.array_equal(a.values, (1.0 + 0j, 2.0j))

    def test_explicit_length_must_match_the_values(self):
        data = {"kind": "explicit", "values": [[1.0, 0.0], [2.0, 0.0]]}
        assert len(coefficients_from_config(dict(data, length=2), 9)) == 2
        with pytest.raises(ValueError, match="length 99 does not match the 2 explicit values"):
            coefficients_from_config(dict(data, length=99), 9)

    def test_geometric(self):
        a = coefficients_from_config({"kind": "geometric", "ratio": 0.5,
                                      "length": 3}, 9)
        assert abs(a.values[2] - 0.125) < 1e-15

    def test_random_signs_deterministic(self):
        a = coefficients_from_config({"kind": "random_signs", "seed": 3,
                                      "length": 10}, 9)
        b = coefficients_from_config({"kind": "random_signs", "seed": 3,
                                      "length": 10}, 9)
        assert np.array_equal(a.values, b.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            coefficients_from_config({"kind": "surprise"}, 5)


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["invariance", "clark"])
    def test_invariance_suite_passes(self, capsys, suite):
        assert main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_clark_suite_solves_each_alpha_once(self, capsys, monkeypatch,
                                                atom_solves, empty_clark_slot):
        assert main(["verify", "clark"]) == 0
        out = capsys.readouterr().out
        # 3 maps x 5 alphas; the moment checks reuse the measure just solved
        assert len(atom_solves) == 15
        assert len(set(atom_solves)) == 15
        # with a key that equals nothing, every check solves again
        monkeypatch.setattr(clark, "_measure_key", lambda f, alpha, power: object())
        atom_solves.clear()
        assert main(["verify", "clark"]) == 0
        assert len(atom_solves) == 45
        assert capsys.readouterr().out == out

    def test_clark_suite_reports_bad_weights_as_failures(self, capsys, monkeypatch,
                                                         empty_clark_slot):
        pullback = BoundaryAtomSolver._pullback

        def light(self, alphas):
            angles, weights = pullback(self, alphas)
            return angles, 0.9 * weights

        monkeypatch.setattr(BoundaryAtomSolver, "_pullback", light)
        assert main(["verify", "clark"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # 3 maps x (5 alphas x (atoms, moments) + desintegration), all FAIL
        assert len(lines) == 33
        assert all(line.startswith("FAIL ") for line in lines)
        atoms = [line for line in lines if line.startswith("FAIL clark-atoms[")]
        assert len(atoms) == 15
        assert all("not 1; atom solve is suspect" in line for line in atoms)

    def test_variance_suite_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "variance.csv"
        assert main(["verify", "variance", "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "S2", "sigma2", "ratio", "growth_ratio",
                           "quasi_ratio", "Q_N"]
        assert len(rows) == 4

    @pytest.mark.parametrize("suite", ["invariance", "clark"])
    def test_csv_rejected_for_suites_without_a_table(self, tmp_path, capsys,
                                                     stepped, suite):
        csv_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--csv", str(csv_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "writes no table" in captured.err and captured.out == ""
        assert not csv_path.exists()
        assert stepped == []  # rejected before any check runs

    @pytest.mark.parametrize("suite", ["correlations", "variance"])
    @pytest.mark.parametrize("where, message", [
        ("missing/table.csv", "no directory {tmp}/missing"),
        ("directory", "{tmp}/directory is a directory")])
    def test_csv_path_that_cannot_be_written_is_a_usage_error(self, tmp_path, capsys,
                                                              stepped, suite, where,
                                                              message):
        (tmp_path / "directory").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--csv", str(tmp_path / where)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            f"innerclt: error: verify {suite} --csv: " + message.format(tmp=tmp_path))
        assert stepped == []  # rejected before any check runs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]

    def test_failed_csv_write_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, header, rows):
            raise OSError(28, "No space left on device")
        monkeypatch.setitem(cli.SUITES, "variance",
                            (lambda: ([("row", True, "detail")], []), ("N",)))
        monkeypatch.setattr(cli, "_write_csv", full_disk)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "variance", "--csv", str(tmp_path / "variance.csv")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "PASS row (detail)\n" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            "innerclt: error: verify variance --csv: [Errno 28] No space left on device")

    def test_correlations_suite_with_csv(self, tmp_path):
        csv_path = tmp_path / "corr.csv"
        assert main(["verify", "correlations", "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "q", "phi", "abs_I", "bound", "pass"]


class TestSimulateCommand:
    def _write_config(self, tmp_path, **overrides):
        config = {
            "map": MAP_Z2,
            "coefficients": {"kind": "ones"},
            "N": 12,
            "samples": 20_000,
            "seed": 42,
            "mode": "main",
            "tolerances": {"mean": 0.05, "abs2": 0.05, "sq": 0.05,
                           "abs4": 0.1, "ks": 0.1},
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_writes_outputs_and_exit_zero(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["clt", "simulate", "--config", str(cfg),
                     "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["pass"] is True
        assert report["config"]["N"] == 12
        with open(out_dir / "samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["re", "im"]
        assert len(rows) == 20_001

    def test_failing_run_exits_one(self, tmp_path):
        cfg = self._write_config(tmp_path, N=2,
                                 tolerances={"ks": 0.02})
        out_dir = tmp_path / "out2"
        assert main(["clt", "simulate", "--config", str(cfg),
                     "--out", str(out_dir)]) == 1
        assert json.loads((out_dir / "report.json").read_text())["pass"] is False

    def test_deterministic_outputs(self, tmp_path):
        cfg = self._write_config(tmp_path)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["clt", "simulate", "--config", str(cfg), "--out", str(d1)])
        main(["clt", "simulate", "--config", str(cfg), "--out", str(d2)])
        assert (d1 / "samples.csv").read_text() == (d2 / "samples.csv").read_text()

    def test_zero_coefficients_fail_before_writing(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, coefficients={
            "kind": "explicit", "values": [[0.0, 0.0]] * 12})
        out_dir = tmp_path / "zero"
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert exc.value.code == 2
        assert ("clt simulate: normalized sum is identically zero"
                in capsys.readouterr().err.splitlines()[-1])
        assert not (out_dir / "report.json").exists()

    def test_tail_run_removes_stale_samples(self, tmp_path):
        out_dir = tmp_path / "out"
        main(["clt", "simulate", "--config", str(self._write_config(tmp_path)),
              "--out", str(out_dir)])
        assert (out_dir / "samples.csv").exists()
        cfg = self._write_config(
            tmp_path, mode="tail", N=5,
            coefficients={"kind": "geometric", "ratio": 0.5, "length": 24})
        main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["mode"] == "tail"
        assert not (out_dir / "samples.csv").exists()

    @pytest.mark.parametrize("mode", ["main", "corollary", "tail"])
    def test_too_few_samples_for_the_report_fail_before_sampling(self, tmp_path, capsys,
                                                                  stepped, mode):
        out_dir = tmp_path / "out"
        main(["clt", "simulate", "--config", str(self._write_config(tmp_path)),
              "--out", str(out_dir)])
        capsys.readouterr()
        stepped.clear()
        # simulate accepts 5000 samples; the Gauss report needs KS_MIN_SAMPLES
        cfg = self._write_config(
            tmp_path, mode=mode, samples=5000,
            coefficients={"kind": "geometric", "ratio": 0.5, "length": 24})
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert exc.value.code == 2
        assert (f"clt simulate: KS statistics need >= {KS_MIN_SAMPLES} samples, got 5000"
                in capsys.readouterr().err.splitlines()[-1])
        assert stepped == []
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "samples.csv").exists()

    @pytest.mark.parametrize("drop, overrides, message", [
        ("N", {}, "clt simulate: missing key 'N'"),
        (None, {"tolerances": {"kss": 0.1}}, "unexpected keyword argument 'kss'"),
        (None, {"map": {"zeros": [[0.5, 0.0]]}}, "at least one zero must be exactly 0"),
        (None, {"coefficients": {"kind": "surprise"}}, "unknown coefficient kind"),
        (None, {"N": "twelve"}, "invalid literal for int()"),
        # values that int() or a tolerance would read as something they do not say
        (None, {"N": 12.7}, "clt simulate: N must be an integer, got 12.7"),
        (None, {"samples": 20000.7}, "clt simulate: samples must be an integer, got 20000.7"),
        (None, {"seed": True}, "clt simulate: seed must be an integer, got true"),
        (None, {"coefficients": {"kind": "ones", "length": 12.0}},
         "clt simulate: length must be an integer, got 12.0"),
        (None, {"coefficients": {"kind": "random_signs", "seed": 1.5}},
         "clt simulate: seed must be an integer, got 1.5"),
        (None, {"tolerances": {"ks": -1}},
         "clt simulate: tolerance ks must be finite and >= 0, got -1.0"),
        (None, {"tolerances": {"ks": float("nan")}},
         "clt simulate: tolerance ks must be finite and >= 0, got nan"),
        (None, {"tolerances": {"abs4": float("inf")}},
         "clt simulate: tolerance abs4 must be finite and >= 0, got inf"),
        (None, {"tolerances": {"ks": True}}, "clt simulate: tolerance ks must be a number, got true"),
        (None, {"N": 2, "coefficients": {"kind": "explicit", "values": [[1, 0], [2, 0]],
                                         "length": 99}},
         "clt simulate: length 99 does not match the 2 explicit values"),
        # sections that are not objects, and booleans where numbers belong
        (None, {"tolerances": [1, 2]}, "clt simulate: tolerances must be an object, got [1, 2]"),
        (None, {"tolerances": None}, "clt simulate: tolerances must be an object, got null"),
        (None, {"coefficients": "ones"},
         'clt simulate: coefficients must be an object, got "ones"'),
        (None, {"coefficients": None}, "clt simulate: coefficients must be an object, got null"),
        (None, {"map": {"zeros": [[False, False], [False, False]]}},
         "clt simulate: zero must be a pair of numbers, got [false, false]"),
        (None, {"map": {"zeros": [[0.0, 0.0], [0.0, 0.0]], "rotation": [True, False]}},
         "clt simulate: rotation must be a pair of numbers, got [true, false]"),
        (None, {"N": 1, "coefficients": {"kind": "explicit", "values": [[True, False]]}},
         "clt simulate: explicit value must be a pair of numbers, got [true, false]"),
        # values that simulate rejects before its first orbit step
        (None, {"mode": "bogus"}, "clt simulate: unknown mode 'bogus'"),
        (None, {"N": 30, "coefficients": {"kind": "ones", "length": 10}},
         "clt simulate: need 1 <= N <= stored coefficient length"),
        (None, {"samples": 2000},
         f"clt simulate: KS statistics need >= {KS_MIN_SAMPLES} samples, got 2000"),
        (None, {"map": {"zeros": [[0.0, 0.0]]}}, "clt simulate: need |lambda| < 1"),
        # more samples than numpy can allocate, and more than it can index
        (None, {"samples": 10 ** 15},
         "clt simulate: cannot hold M = 1000000000000000 samples: Unable to allocate"),
        (None, {"samples": 10 ** 20}, "clt simulate: cannot hold M = 100000000000000000000 "
                                      "samples: Maximum allowed dimension exceeded"),
        (None, {"mode": "tail", "N": 3, "coefficients": {"kind": "ones", "length": 8}},
         "clt simulate: estimated truncated mass inf exceeds")])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, stepped,
                                               drop, overrides, message):
        out_dir = tmp_path / "out"
        main(["clt", "simulate", "--config", str(self._write_config(tmp_path)),
              "--out", str(out_dir)])
        capsys.readouterr()
        stepped.clear()
        cfg = self._write_config(tmp_path, **overrides)
        if drop:
            config = json.loads(cfg.read_text())
            del config[drop]
            cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err.splitlines()[-1]
        assert stepped == []
        # the earlier run's outputs do not pass for this one's
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "samples.csv").exists()

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys, stepped):
        out_file = tmp_path / "out"
        out_file.write_text("not a directory")
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(self._write_config(tmp_path)),
                  "--out", str(out_file)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("innerclt: error: clt simulate --out: ") and "File exists" in last
        assert stepped == []
        assert out_file.read_text() == "not a directory"

    @pytest.mark.parametrize("name", ["samples.csv", "report.json"])
    def test_directory_at_an_output_name_is_a_usage_error(self, tmp_path, capsys, stepped,
                                                          name):
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(self._write_config(tmp_path)),
                  "--out", str(out_dir)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("innerclt: error: clt simulate --out: ")
        assert last.endswith(f"Is a directory: '{out_dir / name}'")
        assert stepped == []
        assert [p.name for p in out_dir.iterdir()] == [name]

    @pytest.mark.parametrize("overrides", [
        {"tolerances": [1, 2]},       # a malformed config
        {"mode": "bogus"},            # a value that simulate rejects
        {"samples": 2000},            # too few samples for the report
        {"samples": 10 ** 15},        # more samples than numpy can allocate
        {"samples": 10 ** 20},        # more samples than numpy can index
    ])
    def test_usage_error_creates_no_directory(self, tmp_path, capsys, overrides):
        out_dir = tmp_path / "o1" / "deep" / "x"
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(self._write_config(tmp_path, **overrides)),
                  "--out", str(out_dir)])
        assert exc.value.code == 2
        assert not (tmp_path / "o1").exists()

    def test_missing_config_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["clt", "simulate", "--config", str(tmp_path / "none.json"),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_formatter_leaves_no_outputs(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        # a failed run leaves none of the earlier run's outputs standing
        monkeypatch.setattr(_csvrows, "rows", _fails_after_one_block())
        with pytest.raises(OSError, match="formatter failed"):
            main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "samples.csv").exists()


def _fails_after_one_block():
    """A row formatter that formats one block, then raises."""
    rows = _csvrows.rows
    calls = []

    def formatter(values):
        calls.append(len(values))
        if len(calls) > 1:
            raise OSError("formatter failed")
        return rows(values)

    return formatter


class TestSamplesCsv:
    EDGE = np.array([-0.0, 5e-324, 1e-05, 1e16, 123456789012345.6, -1.5e-300,
                     np.nan, np.inf, -np.inf])

    @staticmethod
    def _complex(re, im):
        z = np.empty(len(re), dtype=complex)  # re + 1j * im would turn inf into nan
        z.real, z.imag = re, im
        return z

    @staticmethod
    def _csv_writer_bytes(path, samples):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("re", "im"))
            writer.writerows(zip(samples.real.tolist(), samples.imag.tolist()))
        return path.read_bytes()

    def _edge_samples(self, m):
        """m simulated samples with the edge values on both sides of every
        block boundary and at the end."""
        samples = simulate(monomial(2), CoefficientSequence.ones(12), 12,
                           m, seed=42).copy()
        k = len(self.EDGE)
        before = self._complex(self.EDGE, self.EDGE[::-1])
        for b in range(BLOCK, m, BLOCK):
            samples[b - k:b] = before
            samples[b:b + k] = self._complex(self.EDGE[::-1], self.EDGE)
        samples[m - k:] = before
        return samples

    @pytest.mark.parametrize("kind", ["simulate", "edge"])
    def test_bytes_match_csv_writer(self, tmp_path, kind):
        if kind == "simulate":
            samples = simulate(monomial(2), CoefficientSequence.ones(12), 12,
                               5000, seed=42)
        else:
            samples = self._complex(self.EDGE, self.EDGE[::-1])
        _write_samples_csv(tmp_path / "fast.csv", samples)
        assert ((tmp_path / "fast.csv").read_bytes()
                == self._csv_writer_bytes(tmp_path / "ref.csv", samples))

    def test_block_boundaries_match_csv_writer(self, tmp_path):
        # the last block is a partial one
        samples = self._edge_samples(3 * BLOCK + 17)
        _write_samples_csv(tmp_path / "fast.csv", samples)
        assert ((tmp_path / "fast.csv").read_bytes()
                == self._csv_writer_bytes(tmp_path / "ref.csv", samples))

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # the 200 000 rows are formatted one block at a time; the whole
        # text at once would take about 40 MB
        samples = np.random.default_rng(6).standard_normal((200_000, 2)) @ [1, 1j]
        tracemalloc.start()
        try:
            _write_samples_csv(tmp_path / "samples.csv", samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_starts_no_process(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the CSV writer started a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        samples = np.random.default_rng(7).standard_normal((50_000, 2)) @ [1, 1j]
        _write_samples_csv(tmp_path / "samples.csv", samples)
        assert ((tmp_path / "samples.csv").read_bytes()
                == self._csv_writer_bytes(tmp_path / "ref.csv", samples))

    def test_failed_formatter_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_csvrows, "rows", _fails_after_one_block())
        path = tmp_path / "samples.csv"
        with pytest.raises(OSError, match="formatter failed"):
            _write_samples_csv(path, np.zeros(2 * BLOCK + 1, dtype=complex))
        assert not path.exists()


class TestClarkDump:
    def test_dump_json(self, tmp_path, capsys):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(MAP_DEG2_HALF))
        assert main(["clark", "dump", "--map", str(map_path),
                     "--alpha", "1.0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["atoms"]) == 2
        assert abs(sum(w for _, w in data["atoms"]) - 1.0) < 1e-10

    def test_dump_power(self, tmp_path, capsys):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(MAP_Z2))
        assert main(["clark", "dump", "--map", str(map_path),
                     "--alpha", "0.5", "--power", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["atoms"]) == 4

    @pytest.mark.parametrize("extra,message", [
        (["--alpha", "1.0", "--power", "0"], "power must be >= 1"),
        (["--alpha", "1.0", "--power", "13"], "exceeds atom cap 4096"),
        (["--alpha", "nan"], "non-finite angle"),
        (["--alpha", "inf", "--power", "2"], "non-finite angle"),
        (["--alpha", "1.0", "--power", "20000"], "degree 2^20000 exceeds atom cap 4096")])
    def test_bad_arguments_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                            empty_clark_slot, extra, message):
        solved = []
        monkeypatch.setattr(BoundaryAtomSolver, "_pullback",
                            lambda self, alphas: solved.append(alphas))
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(MAP_DEG2_HALF))
        with pytest.raises(SystemExit) as exc:
            main(["clark", "dump", "--map", str(map_path)] + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert solved == []  # rejected before any solve

    def test_rotation_past_the_power_cap_is_a_usage_error(self, tmp_path, capsys):
        map_path = tmp_path / "rotation.json"
        map_path.write_text(json.dumps({"zeros": [[0.0, 0.0]], "rotation": [0.6, 0.8]}))
        with pytest.raises(SystemExit) as exc:
            main(["clark", "dump", "--map", str(map_path), "--alpha", "1.0", "--power", "13"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "innerclt: error: clark dump: power 13 exceeds the power cap 12")

    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("{not json", "Expecting property name"),
        (json.dumps({"zeros": [[0.5, 0.0]]}), "at least one zero must be exactly 0"),
        (json.dumps({"rotation": [1.0, 0.0]}), "clark dump: missing key 'zeros'"),
        (json.dumps({"zeros": 5}), "not iterable"),
        # complex() would read these booleans as 0 and 1
        (json.dumps({"zeros": [[False, False], [False, False]]}),
         "clark dump: zero must be a pair of numbers, got [false, false]"),
        (json.dumps({"zeros": [[0.0, 0.0], [0.5, 0.0]], "rotation": [True, False]}),
         "clark dump: rotation must be a pair of numbers, got [true, false]")])
    def test_bad_map_files_are_usage_errors(self, tmp_path, capsys, text, message):
        map_path = tmp_path / "map.json"
        if text is not None:
            map_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["clark", "dump", "--map", str(map_path), "--alpha", "1.0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err.splitlines()[-1]
