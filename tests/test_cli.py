"""Command-line contract: verdicts mirror the library, exit codes are fixed."""

import json
import os
import subprocess
import sys

import pytest

from hypercones import cli
from test_gallery import descriptor


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestEig:
    def test_orthant_sorted_coordinates(self, capsys):
        code, data, _ = run_json(capsys, "eig", "orthant:3", "1,2,3")
        assert code == 0
        assert data["eigs"] == [3.0, 2.0, 1.0000000000000002] or data["eigs"] == [3.0, 2.0, 1.0]
        assert data["rank"] == 3

    def test_l1_direction(self, capsys):
        code, data, _ = run_json(capsys, "eig", "l1", "0,0,1")
        assert code == 0
        assert data["eigs"] == [1.0, 1.0, 1.0, 1.0]

    def test_non_real_rooted_rational_point_exits_4(self, capsys, tmp_path):
        # x0^2 + 1e-20 x1^2 along (1, 0) at (0, 1): roots +-1e-10 i
        p = {"nvars": 2, "degree": 2, "terms": [
            {"exp": [2, 0], "num": "1", "den": "1"},
            {"exp": [0, 2], "num": "1", "den": str(10**20)},
        ]}
        path = tmp_path / "desc.json"
        path.write_text(json.dumps({"label": "tilted", "polynomial": p, "e": ["1", "0"]}))
        code, out, err = run(capsys, "eig", f"file:{path}", "0,1")
        assert code == 4 and not out and "not real-rooted" in err

    def test_eigenvalue_beyond_float_range_exits_4(self, capsys):
        code, out, err = run(capsys, "eig", "orthant:3", f"{10**400},1,2")
        assert code == 4 and not out and "float range" in err

    def test_malformed_point_exits_2(self, capsys):
        code, out, err = run(capsys, "eig", "orthant:3", "1,2,zebra")
        assert code == 2 and not out and "error" in err

    def test_dimension_mismatch_exits_3(self, capsys):
        code, _, err = run(capsys, "eig", "orthant:3", "1,2")
        assert code == 3 and "coordinates" in err

    def test_closed_stdout_exits_quietly(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hypercones.cli", "eig", "orthant:3", "1,2,3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 0

    def test_import_and_eig_leave_scipy_unloaded(self):
        # scipy serves only `autgroup.lie_probe`, which imports it on call and
        # which no suite check calls
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        script = (
            "import sys, hypercones, hypercones.cli, hypercones.suite\n"
            "code = hypercones.cli.main(['eig', 'psd:3', '1,0,0,1,0,0'])\n"
            "flows = hypercones.suite.run_suite(0, name_filter='lyapunov')\n"
            "assert [c.status for c in flows.checks] == ['pass'], flows.checks\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert code == 0 and not loaded, (code, loaded)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_cone_exits_2(self, capsys):
        code, _, _ = run(capsys, "eig", "mystery:3", "1,2,3")
        assert code == 2

    def test_rational_tokens(self, capsys):
        code, data, _ = run_json(capsys, "eig", "orthant:2", "3/2,0.25")
        assert code == 0
        assert data["eigs"] == [1.5, 0.25]


class TestMember:
    def test_relaxation_membership_in(self, capsys):
        code, data, _ = run_json(capsys, "member", "orthant:4:k=1", "--", "-1,3,3,3")
        assert code == 0 and data["verdict"] == "In"

    def test_relaxation_membership_out(self, capsys):
        code, data, _ = run_json(capsys, "member", "orthant:4:k=1", "--", "-5,1,1,1")
        assert code == 1 and data["verdict"] == "Out"

    def test_psd_negative_identity_out(self, capsys):
        code, data, _ = run_json(
            capsys, "member", "psd:3", "--", "-1,-1,-1,0,0,0"
        )
        assert code == 1 and data["verdict"] == "Out"

    def test_interior_point_in(self, capsys):
        code, data, _ = run_json(capsys, "member", "soc:3", "2,1,0")
        assert code == 0 and data["verdict"] == "In"


class TestDeriv:
    def test_prints_polynomial_json(self, capsys):
        code, data, _ = run_json(capsys, "deriv", "orthant:4", "--k", "1")
        assert code == 0
        assert data["degree"] == 3 and len(data["terms"]) == 4

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "deriv", "orthant:3", "--k", "7")
        assert code == 2


class TestAutcheck:
    def test_permutation_holds(self, capsys, tmp_path):
        path = tmp_path / "perm.json"
        path.write_text(json.dumps(
            [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]
        ))
        code, data, _ = run_json(capsys, "autcheck", "orthant:3", str(path))
        assert code == 0 and data["verdict"] == "Holds"
        assert data["kappa"] == {"num": "1", "den": "1"}

    def test_unequal_diagonal_fails_on_relaxation(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(
            [["1", "0", "0", "0", "0"],
             ["0", "2", "0", "0", "0"],
             ["0", "0", "1", "0", "0"],
             ["0", "0", "0", "1", "0"],
             ["0", "0", "0", "0", "1"]]
        ))
        code, data, _ = run_json(capsys, "autcheck", "orthant:5", str(path), "--k", "1")
        assert code == 1 and data["verdict"] == "FailsWithWitness"

    def test_rational_signed_permutation_on_psd_relaxation(self, capsys, tmp_path):
        from hypercones import autgroup
        from hypercones.autgroup import LinearMap

        q = LinearMap([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        lq = autgroup.lm_linear_map(q, 4)
        path = tmp_path / "lq.json"
        path.write_text(json.dumps([[str(v) for v in row] for row in lq.rows]))
        code, data, _ = run_json(capsys, "autcheck", "psd:4", str(path), "--k", "1")
        assert code == 0 and data["verdict"] == "Holds"

    def test_matrix_dimension_mismatch_exits_3(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
        code, _, _ = run(capsys, "autcheck", "orthant:3", str(path))
        assert code == 3

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "autcheck", "orthant:3", "/nonexistent.json")
        assert code == 2


class TestChainAndRog:
    def test_chain_orthant(self, capsys):
        code, data, _ = run_json(capsys, "chain", "orthant:5")
        assert code == 0
        assert data["ranks"] == [0, 1, 2, 3, 4, 5]

    def test_chain_psd(self, capsys):
        code, data, _ = run_json(capsys, "chain", "psd:3")
        assert code == 0
        assert data["ranks"] == [0, 1, 2, 3]

    def test_rogcheck_split(self, capsys):
        code, data, _ = run_json(capsys, "rogcheck", "psd:3")
        assert code == 0 and data["verdict"] == "Holds"
        code, data, _ = run_json(capsys, "rogcheck", "l1")
        assert code == 1 and data["verdict"] == "FailsWithWitness"


class TestDescriptorFileCones:
    def test_member_on_user_supplied_cone(self, capsys, tmp_path):
        from hypercones import gallery

        path = tmp_path / "cone.json"
        path.write_text(json.dumps(descriptor(gallery.soc(3))))
        code, data, _ = run_json(capsys, "member", f"file:{path}", "2,1,0")
        assert code == 0 and data["verdict"] == "In"
        code, data, _ = run_json(capsys, "member", f"file:{path}", "0,1,0")
        assert code == 1 and data["verdict"] == "Out"


class TestGarding:
    def test_soc_sampled(self, capsys):
        code, data, _ = run_json(capsys, "garding", "soc:3", "--samples", "25")
        assert code == 0
        assert data["min_gap_random"] >= -1e-9
        assert data["max_gap_proportional"] <= 1e-9


class TestSuite:
    def test_filtered_run_and_determinism(self, capsys):
        code1, data1, _ = run_json(
            capsys, "suite", "--filter", "l1-derivatives", "--seed", "3", "--json"
        )
        code2, data2, _ = run_json(
            capsys, "suite", "--filter", "l1-derivatives", "--seed", "3", "--json"
        )
        assert code1 == code2 == 0
        assert data1 == data2
        assert data1["counts"]["pass"] == 1

    def test_bad_filter_exits_2(self, capsys):
        code, _, err = run(capsys, "suite", "--filter", "zzz")
        assert code == 2 and "matches no checks" in err

    def test_progress_goes_to_stderr_json_to_stdout(self, capsys):
        code, out, err = run(
            capsys, "suite", "--filter", "orthant-derivative", "--json"
        )
        assert code == 0
        json.loads(out)  # stdout is pure JSON
        assert "orthant-derivative-identity: pass" in err

    @pytest.mark.parametrize("name", ["route-equivalence", "garding"])
    def test_json_does_not_depend_on_the_hash_seed(self, name):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        outs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "hypercones.cli", "suite", "--seed", "0",
                 "--json", "--filter", name],
                capture_output=True, timeout=300,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["counts"]["pass"] == 1


class TestSeedEnv:
    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCONE_SEED", "7")
        parser = cli.build_parser()
        args = parser.parse_args(["suite"])
        assert args.seed == 7

    def test_bad_env_seed_falls_back(self, monkeypatch):
        monkeypatch.setenv("HYPERCONE_SEED", "pickles")
        assert cli._default_seed() == 0


class TestExitContract:
    """Rejected input exits 2; an error raised while a command runs is the
    program's fault and is not dressed up as bad input."""

    @staticmethod
    def write_matrix(tmp_path, rows):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[str(v) for v in row] for row in rows]))
        return str(path)

    def test_cone_without_generators_exits_2(self, capsys, tmp_path):
        from hypercones.cones import HyperCone
        from hypercones.poly import HomoPoly

        path = tmp_path / "cone.json"
        cone = HyperCone(HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1))
        path.write_text(json.dumps(descriptor(cone)))
        for command in ("chain", "rogcheck"):
            code, out, err = run(capsys, command, f"file:{path}")
            assert code == 2 and not out and "no built-in generators" in err

    def test_singular_map_exits_2(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
        for extra in ((), ("--k", "1")):
            code, out, err = run(capsys, "autcheck", "orthant:3", path, *extra)
            assert code == 2 and not out and "invertible" in err

    def test_relaxation_order_out_of_range_exits_2(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, out, err = run(capsys, "autcheck", "orthant:3", path, "--k", "3")
        assert code == 2 and not out and "outside 1..2" in err

    def test_start_index_out_of_range_exits_2(self, capsys):
        code, out, err = run(capsys, "chain", "orthant:3", "--start", "3")
        assert code == 2 and not out and "start index" in err

    @pytest.mark.parametrize("argv", [
        ("deriv", "orthant:3", "--tol", "5"),
        ("deriv", "orthant:3", "--seed", "9"),
        ("chain", "orthant:3", "--tol", "1e-3"),
        ("suite", "--filter", "l1", "--tol", "1e-3"),
        ("eig", "orthant:3", "1,2,3", "--seed", "3"),
        ("member", "orthant:3", "1,2,3", "--seed", "3"),
        ("rogcheck", "orthant:3", "--seed", "3"),
        ("eig", "orthant:3", "1,2,0", "--tol", "1e-3"),
        ("member", "orthant:3", "1,2,3", "--tol", "1e-3"),
        ("rogcheck", "l1", "--tol", "1e3"),
    ])
    def test_flags_a_command_does_not_read_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "unrecognized arguments" in err

    def test_nonpositive_samples_exit_2(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        for argv in (
            ("garding", "soc:3", "--samples", "0"),
            ("autcheck", "l1:k=1", path, "--samples", "0"),
            ("autcheck", "orthant:3", path, "--samples", "-5"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and "--samples" in err

    def test_tol_not_finite_and_positive_exits_2(self, capsys, tmp_path):
        path = self.write_matrix(tmp_path, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        for argv in (
            ("autcheck", "l1:k=1", path, "--tol", "nan"),
            ("autcheck", "orthant:3", path, "--tol", "0"),
            ("garding", "soc:3", "--samples", "5", "--tol", "-1"),
            ("garding", "soc:3", "--samples", "5", "--tol", "nan"),
            ("garding", "soc:3", "--samples", "5", "--tol", "inf"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and "--tol" in err

    def test_internal_error_in_autcheck_exits_70(self, capsys, tmp_path, monkeypatch):
        from hypercones import autgroup

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(autgroup, "check_automorphism", broken)
        path = self.write_matrix(tmp_path, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        code, out, err = run(capsys, "autcheck", "orthant:3", path)
        assert code == cli.EXIT_INTERNAL == 70
        assert not out and "internal fault" in err and "Traceback" in err

    def test_internal_error_in_suite_exits_70(self, capsys, monkeypatch):
        from hypercones import suite

        def broken(seed, ctx):
            raise ValueError("internal fault")

        monkeypatch.setattr(suite, "ALL_CHECKS", (("broken-check", broken),))
        code, out, err = run(capsys, "suite", "--filter", "broken")
        assert code == 70 and not out
        assert "internal fault" in err and "Traceback" in err
