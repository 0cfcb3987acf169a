"""Command-line interface: verify suites, simulation runs, Clark dumps."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from innerclt import cli
from innerclt.blaschke import monomial
from innerclt.cli import _write_samples_csv, coefficients_from_config, main
from innerclt.clt import simulate
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
    def test_invariance_suite_passes(self, capsys):
        assert main(["verify", "invariance"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_variance_suite_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "variance.csv"
        assert main(["verify", "variance", "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "S2", "sigma2", "ratio", "growth_ratio",
                           "quasi_ratio", "Q_N"]
        assert len(rows) == 4

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

    def test_zero_coefficients_fail_before_writing(self, tmp_path):
        cfg = self._write_config(tmp_path, coefficients={
            "kind": "explicit", "values": [[0.0, 0.0]] * 12})
        out_dir = tmp_path / "zero"
        with pytest.raises(ValueError, match="identically zero"):
            main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
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

    def test_failed_formatter_child_leaves_no_outputs(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        # a failed run leaves none of the earlier run's outputs standing
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "MIN_CHUNK_ROWS", 1000)
        monkeypatch.setattr(cli, "_ROWS_CHILD",
                            (sys.executable, "-c", "import sys; sys.exit(3)"))
        with pytest.raises(subprocess.CalledProcessError):
            main(["clt", "simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "samples.csv").exists()


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

    @pytest.fixture
    def children(self, monkeypatch):
        """The children the writer starts (a spy on subprocess.Popen)."""
        started = []
        popen = subprocess.Popen

        def spy(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(cli.subprocess, "Popen", spy)
        return started

    def _edge_samples(self, m, chunks):
        """m simulated samples with the edge values on both sides of every
        chunk boundary and at the end."""
        samples = simulate(monomial(2), CoefficientSequence.ones(12), 12,
                           m, seed=42).array().copy()
        k = len(self.EDGE)
        before = self._complex(self.EDGE, self.EDGE[::-1])
        for b in [m * j // chunks for j in range(1, chunks)]:
            samples[b - k:b] = before
            samples[b:b + k] = self._complex(self.EDGE[::-1], self.EDGE)
        samples[m - k:] = before
        return samples

    @pytest.mark.parametrize("kind", ["simulate", "edge"])
    def test_bytes_match_csv_writer(self, tmp_path, kind):
        if kind == "simulate":
            samples = simulate(monomial(2), CoefficientSequence.ones(12), 12,
                               5000, seed=42).array()
        else:
            samples = self._complex(self.EDGE, self.EDGE[::-1])
        _write_samples_csv(tmp_path / "fast.csv", samples)
        assert ((tmp_path / "fast.csv").read_bytes()
                == self._csv_writer_bytes(tmp_path / "ref.csv", samples))

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_chunked_bytes_match_csv_writer(self, tmp_path, monkeypatch,
                                            children, chunks):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: chunks)
        monkeypatch.setattr(cli, "MIN_CHUNK_ROWS", 10)
        samples = self._edge_samples(3000, chunks)
        _write_samples_csv(tmp_path / "fast.csv", samples)
        assert len(children) == chunks - 1
        assert ((tmp_path / "fast.csv").read_bytes()
                == self._csv_writer_bytes(tmp_path / "ref.csv", samples))

    @pytest.mark.parametrize("extra,started", [(-1, 0), (0, 1)])
    def test_threshold_for_a_child(self, tmp_path, monkeypatch, children,
                                   extra, started):
        # 2 * MIN_CHUNK_ROWS rows are the fewest that get a second chunk
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        m = 2 * cli.MIN_CHUNK_ROWS + extra
        samples = np.random.default_rng(5).standard_normal((m, 2)) @ [1, 1j]
        _write_samples_csv(tmp_path / "fast.csv", samples)
        assert len(children) == started
        assert ((tmp_path / "fast.csv").read_bytes()
                == self._csv_writer_bytes(tmp_path / "ref.csv", samples))

    def test_failed_child_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "MIN_CHUNK_ROWS", 10)
        monkeypatch.setattr(cli, "_ROWS_CHILD",
                            (sys.executable, "-c", "import sys; sys.exit(3)"))
        path = tmp_path / "samples.csv"
        with pytest.raises(subprocess.CalledProcessError) as err:
            _write_samples_csv(path, np.zeros(30, dtype=complex))
        assert err.value.returncode == 3
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
