import json
import math

import tverberg.cli
from tverberg.cli import cli_main
from tverberg.pointio import _strictly_convex, format_points, generate, parse_points
from tverberg.solver import SearchFailedError

SQUARE_TXT = "0 0\n1 0\n1 1\n0 1\n"
PENTAGON_TXT = "\n".join(
    f"{math.cos(math.pi / 2 + 2 * math.pi * k / 5)} "
    f"{math.sin(math.pi / 2 + 2 * math.pi * k / 5)}"
    for k in range(5)
) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_pentagon_document(self, tmp_path, capsys):
        path = write(tmp_path, "pent.txt", PENTAGON_TXT)
        assert cli_main(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "odd_cycle"
        assert len(doc["edges"]) == 5
        assert all(m["margin"] >= -1e-9 for m in doc["margins"])
        assert list(doc.keys()) == [
            "tool", "version", "input", "mode", "edges", "witness",
            "certificate", "margins", "stats",
        ]

    def test_perturbation_reported(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "line.txt", "".join(f"{k} 0\n" for k in range(5)))
        assert cli_main(["solve", path]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert not stats["perturbed"] and stats["perturbation"] == 0.0
        # The perturbed last resort: the jittered copy's graph is not
        # certified on the input.
        monkeypatch.setattr("tverberg.solver.is_tverberg_graph", lambda *a: None)
        assert cli_main(["solve", path]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["perturbed"] and 0.0 < stats["perturbation"] < 1e-3

    def test_solve_then_verify_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "pts.txt", format_points(generate("uniform", 6, seed=8)))
        assert cli_main(["solve", path, "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        edges = ",".join(f"{a}-{b}" for a, b in doc["edges"])
        assert cli_main(["verify", path, "--edges", edges]) == 0

    def test_solve_renders(self, tmp_path, capsys):
        path = write(tmp_path, "pent.txt", PENTAGON_TXT)
        out = tmp_path / "fig.svg"
        assert cli_main(["solve", path, "--render", str(out)]) == 0
        assert out.read_text().startswith("<?xml")


class TestVerify:
    def test_square_boundary_case(self, tmp_path, capsys):
        path = write(tmp_path, "sq.txt", SQUARE_TXT)
        assert cli_main(["verify", path, "--edges", "0-1,1-2,2-3,3-0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["min_margin"]) <= 1e-9
        assert [round(v, 9) for v in doc["witness"]] == [0.5, 0.5]

    def test_negative_verification_exit_one(self, tmp_path, capsys):
        # Two far-apart edges whose disks cannot meet.
        path = write(tmp_path, "far.txt", "0 0\n1 0\n100 0\n101 0\n")
        assert cli_main(["verify", path, "--edges", "0-1,2-3"]) == 1
        assert "NOT TVERBERG" in capsys.readouterr().out


class TestLensCheck:
    def test_square_all_cycles_absent(self, tmp_path, capsys):
        path = write(tmp_path, "sq.txt", SQUARE_TXT)
        code = cli_main(
            ["lens-check", path, "--alpha", str(math.pi / 2 + 0.01), "--all-cycles"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("ABSENT") == 3

    def test_all_cycles_needs_three_points(self, tmp_path, capsys):
        for name, text in (("one.txt", "0 0\n"), ("two.txt", "0 0\n1 0\n")):
            path = write(tmp_path, name, text)
            code = cli_main(["lens-check", path, "--alpha", "1.6", "--all-cycles"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "3 to 9 points" in captured.err

    def test_single_family_present(self, tmp_path, capsys):
        path = write(tmp_path, "sq.txt", SQUARE_TXT)
        code = cli_main(
            ["lens-check", path, "--alpha", str(math.pi / 2), "--edges", "0-1,1-2,2-3,3-0"]
        )
        assert code == 0
        assert "PRESENT" in capsys.readouterr().out


class TestOtherCommands:
    def test_enumerate(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", format_points(generate("uniform", 5, seed=2)))
        assert cli_main(["enumerate", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_cycles"] == 12
        assert doc["tverberg_count"] >= 1

    def test_partition(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", format_points(generate("uniform", 7, seed=3)))
        assert cli_main(["partition", path, "--r", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == 3
        assert doc["min_degree"] >= 3
        assert doc["min_degree_ok"] and doc["covers_all_parts"]
        assert doc["min_margin"] >= -1e-9

    def test_gen_deterministic(self, capsys):
        assert cli_main(["gen", "--kind", "convex", "-m", "5", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["gen", "--kind", "convex", "-m", "5", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 6  # header + 5 points

    def test_gen_convex_beyond_rejection_sampling(self, capsys):
        assert cli_main(["gen", "--kind", "convex", "-m", "31"]) == 0
        points = parse_points(capsys.readouterr().out)
        assert len(points) == 31 and _strictly_convex(points.coords)

    def test_check_gp_exit_codes(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.txt", "0 0\n1 0\n2 0\n")
        assert cli_main(["check-gp", bad]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["collinear_triples"] == [[0, 1, 2]]
        good = write(tmp_path, "good.txt", format_points(generate("uniform", 5, seed=0)))
        assert cli_main(["check-gp", good]) == 0

    def test_render_command(self, tmp_path):
        path = write(tmp_path, "sq.txt", SQUARE_TXT)
        out = tmp_path / "sq.svg"
        assert (
            cli_main(
                ["render", path, "--edges", "0-1,1-2", "--witness", "0.5,0.5",
                 "-o", str(out), "--labels"]
            )
            == 0
        )
        text = out.read_text()
        assert text.count("<line") == 2

    def test_usage_errors(self, tmp_path, capsys):
        assert cli_main(["frobnicate"]) == 2
        assert cli_main(["solve", "--bogus-flag", "x"]) == 2
        missing = str(tmp_path / "missing.txt")
        assert cli_main(["solve", missing]) == 2
        bad = write(tmp_path, "bad.txt", "0 0\n0 0\n")
        assert cli_main(["solve", bad]) == 2

    def test_internal_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def failing_solve(points, seed=0, config=None):
            raise SearchFailedError("no certified cycle found")

        monkeypatch.setattr(tverberg.cli, "solve", failing_solve)
        path = write(tmp_path, "pent.txt", PENTAGON_TXT)
        assert cli_main(["solve", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no certified cycle found\n"
