"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info", "--width", "32"]) == 0
        out = capsys.readouterr().out
        assert "192" in out  # C(log2C+1) at C=32
        assert "236 MHz" in out

    def test_solve_host(self, capsys):
        rc = main(
            [
                "solve",
                "--domain",
                "portfolio",
                "--dimension",
                "12",
                "--backend",
                "host",
            ]
        )
        assert rc == 0
        assert "solved" in capsys.readouterr().out

    def test_solve_mib(self, capsys):
        rc = main(
            [
                "solve",
                "--domain",
                "svm",
                "--dimension",
                "6",
                "--backend",
                "mib",
                "--width",
                "16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_solve_network(self, capsys):
        rc = main(
            [
                "solve",
                "--domain",
                "mpc",
                "--dimension",
                "3",
                "--backend",
                "network",
                "--width",
                "16",
            ]
        )
        assert rc == 0
        assert "executed cycles" in capsys.readouterr().out

    def test_compile_and_save(self, capsys, tmp_path):
        rc = main(
            [
                "compile",
                "--domain",
                "portfolio",
                "--dimension",
                "10",
                "--width",
                "16",
                "--output",
                str(tmp_path / "exe"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kkt_solve" in out
        assert list(tmp_path.glob("exe.*.mibx"))

    def test_schedule(self, capsys):
        rc = main(
            ["schedule", "--domain", "svm", "--dimension", "10", "--width", "16"]
        )
        assert rc == 0
        assert "cycles after reordering" in capsys.readouterr().out

    def test_unknown_domain(self):
        with pytest.raises(SystemExit):
            main(["solve", "--domain", "sudoku"])

    def test_serve_offers_no_interpret_mode(self, capsys):
        """A command accepts only flags it reads.  ``--execution`` is
        read by ``solve --backend network`` alone (``serve`` runs the
        host reference; ``compile``, ``schedule`` and ``suite`` run no
        kernel); no command selects an array backend; ``suite`` times
        no batched pass; ``serve`` has no pool-level warm start.  Every
        rejection is argparse's exit 2."""
        rejected = [
            [cmd, "--execution", "replay"]
            for cmd in ("serve", "compile", "schedule", "suite")
        ]
        rejected += [
            [cmd, "--array-backend", "numpy"]
            for cmd in ("solve", "compile", "schedule", "suite", "serve",
                        "info")
        ]
        rejected.append(["suite", "--batch", "4"])
        # Sessions are the serve tier's one warm start.
        rejected.append(["serve", "--warm-start"])
        for argv in rejected:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err
        for mode in ("interpret", "replay"):
            rc = main(
                ["solve", "--domain", "mpc", "--dimension", "3",
                 "--backend", "network", "--width", "16",
                 "--execution", mode]
            )
            assert rc == 0, mode
            assert f"host crossings ({mode})" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--domain", "mpc", "--backend", "network",
                  "--execution", "fused"])
        assert exc.value.code == 2
        assert "invalid choice: 'fused'" in capsys.readouterr().err

    def test_solve_from_qps(self, capsys, tmp_path):
        from tests.test_io import QPS_SAMPLE

        path = tmp_path / "prob.qps"
        path.write_text(QPS_SAMPLE)
        rc = main(["solve", "--qps", str(path), "--backend", "host"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TESTQP" in out
        assert "solved" in out
