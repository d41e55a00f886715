import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from masseybrauer.cli import _js_int, run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestJsInt:
    def test_small_stay_ints(self):
        assert _js_int(7) == 7
        assert _js_int(-(2**53) + 1) == -(2**53) + 1

    def test_big_become_strings(self):
        assert _js_int(2**53) == str(2**53)
        assert _js_int(-(2**60)) == str(-(2**60))


class TestGroupCommands:
    def test_cohomology_klein(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "cohomology", "--group", "elab:2:2", "--p", "2", "--degree", "2"],
        )
        assert code == 0
        assert data["group_order"] == 4 and data["dim"] == 3
        assert len(data["representatives"]) == 3

    def test_massey_z3(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "massey", "--group", "cyclic:3", "--p", "3",
             "--chars", "[[1], [1], [1]]"],
        )
        assert code == 0
        assert data["defined"] is True
        assert data["contains_zero"] is False
        assert data["indeterminacy"] == []

    def test_massey_undefined(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "massey", "--group", "elab:2:2", "--p", "2",
             "--chars", "[[1, 0], [0, 1], [1, 0]]"],
        )
        assert code == 0
        assert data == {"defined": False}

    def test_scan_vanishing(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "scan-vanishing", "--group", "cyclic:3", "--p", "3",
             "--jobs", "2"],
        )
        assert code == 0
        assert data["holds"] is False
        assert {"triple": [[1], [1], [1]]} in data["witnesses"]
        assert len(data["triples"]) == 27

    def test_cup_res(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "cup-res", "--group", "elab:2:2", "--p", "2",
             "--chars", "[[1, 0], [0, 1]]"],
        )
        assert code == 0
        assert data["holds"] is True
        assert data["dim_image"] == data["dim_kernel"] == 3

    def test_u_hom(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "u-hom", "--group", "cyclic:4", "--p", "2",
             "--chars", "[[1], [1]]", "--n", "2"],
        )
        assert code == 0
        assert data["found"] is True and data["surjective"] is False
        for mat in data["generator_images"]:
            assert len(mat) == 3 and all(len(row) == 3 for row in mat)

    def test_u_hom_bar_absent_full(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "u-hom", "--group", "elab:2:2", "--p", "2",
             "--chars", "[[1, 0], [0, 1]]", "--n", "2"],
        )
        assert code == 0 and data == {"found": False}
        code, data = run_json(
            capsys,
            ["group", "u-hom", "--group", "elab:2:2", "--p", "2",
             "--chars", "[[1, 0], [0, 1]]", "--n", "2", "--bar"],
        )
        assert code == 0 and data["found"] is True

    def test_inline_table_group(self, capsys):
        table = json.dumps({"table": [[0, 1], [1, 0]]})
        code, data = run_json(
            capsys,
            ["group", "cohomology", "--group", table, "--p", "2", "--degree", "1"],
        )
        assert code == 0 and data["dim"] == 1

    @pytest.mark.parametrize(
        "table, law",
        [
            ([[0, 1], [0, 1]], "identity law fails"),
            (  # a loop of order 5: identity and inverse laws hold, not associative
                [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
                "associativity fails",
            ),
        ],
    )
    def test_non_group_table_is_domain_error(self, capsys, table, law):
        spec = json.dumps({"table": table})
        code, data = run_json(
            capsys,
            ["group", "cohomology", "--group", spec, "--p", "2", "--degree", "1"],
        )
        assert code == 1 and data["error"].startswith(law)

    def test_perm_group(self, capsys):
        spec = json.dumps({"perm_degree": 3, "generators": [[2, 3, 1]]})
        code, data = run_json(
            capsys,
            ["group", "cohomology", "--group", spec, "--p", "3", "--degree", "1"],
        )
        assert code == 0
        assert data["group_order"] == 3 and data["dim"] == 1

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
        code, data = run_json(
            capsys,
            ["group", "cohomology", "--group", f"@{path}", "--p", "2", "--degree", "2"],
        )
        assert code == 0 and data["group_order"] == 2


class TestQCommands:
    def test_hilbert(self, capsys):
        code, data = run_json(
            capsys, ["q", "hilbert", "--a", "2", "--b", "3", "--place", "2"]
        )
        assert code == 0 and data == {"symbol": -1}
        code, data = run_json(
            capsys, ["q", "hilbert", "--a", "-1", "--b", "-1", "--place", "inf"]
        )
        assert code == 0 and data == {"symbol": -1}

    def test_hilbert_at_a_large_prime(self, capsys):
        # the place is checked prime by Miller-Rabin, not by trial division
        start = time.perf_counter()
        code, data = run_json(
            capsys, ["q", "hilbert", "--a", "3", "--b", "5", "--place", "1000000000000000003"]
        )
        assert code == 0 and data == {"symbol": 1}
        assert time.perf_counter() - start < 0.3

    def test_invariants(self, capsys):
        code, data = run_json(
            capsys, ["q", "invariants", "--class", "[[2, 3]]"]
        )
        assert code == 0
        assert data == {
            "invariants": [
                {"place": "2", "inv": "1/2"},
                {"place": "3", "inv": "1/2"},
            ]
        }

    def test_invariants_sorted_real_first(self, capsys):
        code, data = run_json(
            capsys, ["q", "invariants", "--class", "[[-1, -1]]"]
        )
        assert code == 0
        assert [e["place"] for e in data["invariants"]] == ["inf", "2"]

    def test_split(self, capsys):
        code, data = run_json(
            capsys, ["q", "split", "--class", "[[2, 3]]", "--a", "[2]"]
        )
        assert code == 0 and data == {"splits": True}
        code, data = run_json(
            capsys, ["q", "split", "--class", "[[-1, -1]]", "--a", "[2]"]
        )
        assert code == 0 and data == {"splits": False}

    def test_decompose_and_verify_round_trip(self, capsys, tmp_path):
        code, cert = run_json(
            capsys, ["q", "decompose", "--class", "[[6, 5]]", "--a", "[2, 3]"]
        )
        assert code == 0 and cert["verified"] is True
        assert cert["a_list"] == [2, 3]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, data = run_json(capsys, ["q", "verify", "--cert", f"@{path}"])
        assert code == 0 and data == {"valid": True, "reason": "ok"}

    def test_verify_tampered(self, capsys):
        code, cert = run_json(
            capsys, ["q", "decompose", "--class", "[[2, 3]]", "--a", "[2]"]
        )
        assert code == 0
        cert["x_list"] = [15]
        code, data = run_json(capsys, ["q", "verify", "--cert", json.dumps(cert)])
        assert code == 0 and data["valid"] is False

    def test_decompose_non_splitting_is_error(self, capsys):
        code, data = run_json(
            capsys, ["q", "decompose", "--class", "[[-1, -1]]", "--a", "[2]"]
        )
        assert code == 1 and "error" in data


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(["group", "cohomology", "--group", "cyclic:2"]) == 2
        assert run(["bogus"]) == 2
        capsys.readouterr()

    def test_domain_error_is_1(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "cohomology", "--group", "no-such-group", "--p", "2",
             "--degree", "1"],
        )
        assert code == 1 and "error" in data

    @pytest.mark.parametrize("name", ["elab:2:0", "elab:3:-1", "cyclic:0"])
    def test_empty_product_or_cycle_is_1(self, capsys, name):
        argv = ["group", "cohomology", "--group", name, "--p", "2", "--degree", "1"]
        code, data = run_json(capsys, argv)
        assert code == 1 and "must be positive" in data["error"]

    @pytest.mark.parametrize("command", ["cohomology", "scan-vanishing"])
    def test_modulus_over_bound_is_1(self, capsys, command):
        argv = ["group", command, "--group", "cyclic:2", "--p", str(2**31 - 1)]
        code, data = run_json(capsys, argv + (["--degree", "2"] if command == "cohomology" else []))
        assert code == 1 and "exactness bound" in data["error"]

    @pytest.mark.parametrize("n,chars", [(0, "[]"), (1, "[[1]]")])
    def test_u_hom_n_below_two_is_1(self, capsys, n, chars):
        code, data = run_json(
            capsys,
            ["group", "u-hom", "--group", "cyclic:4", "--p", "2",
             "--chars", chars, "--n", str(n)],
        )
        assert code == 1 and "at least 2" in data["error"]

    def test_malformed_aux_bound_variable_is_ignored(self):
        # the auxiliary-prime bound is a constant; a malformed value in the
        # variable that once set it must not break any command
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, MASSEYBRAUER_AUX_PRIME_BOUND="abc")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["group", "cohomology", "--group", "cyclic:2", "--p", "2", "--degree", "1"]
        done = subprocess.run(
            [sys.executable, "-c", "from masseybrauer.cli import main; main()", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["dim"] == 1

    def test_module_entry_point_matches_run(self, capsys):
        # python -m masseybrauer.cli runs the command, as the console script does
        argv = ["group", "cohomology", "--group", "elab:2:2", "--p", "2", "--degree", "2"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "masseybrauer.cli", *argv],
            env=env, capture_output=True, timeout=60,
        )
        assert run(argv) == 0
        assert done.returncode == 0, done.stderr
        assert done.stdout and done.stdout == capsys.readouterr().out.encode()

    def test_bad_char_length_is_1(self, capsys):
        code, data = run_json(
            capsys,
            ["group", "massey", "--group", "cyclic:3", "--p", "3",
             "--chars", "[[1, 0], [1], [1]]"],
        )
        assert code == 1 and "error" in data


# the certificate README.md shows for (6, 5) over Q(sqrt 2, sqrt 3)
README_CERT = {
    "class": [[6, 5]], "a_list": [2, 3], "x_list": [3, 1], "v0": "5",
    "adjusted_a_list": [2, 3], "partition": [["2", "3"], []],
    "t_parities": [0, 0], "verified": True,
}


class TestMalformedJson:
    """Every integer read from JSON is a JSON integer (or a decimal string as
    the CLI writes one beyond 2^53); anything else, and any wrong shape, is
    exit 1 with {"error": ...}, never a truncation or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["q", "invariants", "--class", "[[2.9, 3]]"],
            ["q", "decompose", "--class", "[[6, 5]]", "--a", "[2.2, 3]"],
            ["q", "verify", "--cert", json.dumps(dict(README_CERT, x_list=[3.9, 1]))],
            ["group", "cohomology", "--group", '{"table": [[0, 1.9], [1, 0]]}',
             "--p", "2", "--degree", "1"],
            ["group", "massey", "--group", "cyclic:3", "--p", "3",
             "--chars", "[[1.7], [1], [1]]"],
            ["group", "massey", "--group", "cyclic:3", "--p", "3",
             "--chars", "[[true], [1], [1]]"],
            ["q", "invariants", "--class", "[1]"],
            ["group", "massey", "--group", "cyclic:3", "--p", "3", "--chars", "5"],
            ["q", "split", "--class", "[[2, 3]]", "--a", "7"],
            ["q", "verify", "--cert", "{}"],
            ["group", "cohomology", "--group", '{"perm_degree": 3}',
             "--p", "3", "--degree", "1"],
        ],
        ids=[
            "float-class", "float-a", "float-x-list", "float-table", "float-chars",
            "bool-chars", "class-not-pairs", "chars-not-list", "a-not-list",
            "cert-empty", "perm-no-generators",
        ],
    )
    def test_domain_error(self, capsys, argv):
        code, data = run_json(capsys, argv)
        assert code == 1 and list(data) == ["error"]

    @pytest.mark.parametrize("v0", [5, " 5", True, "5.0"],
                             ids=["number", "padded", "bool", "float-string"])
    def test_place_not_as_written(self, capsys, v0):
        for cert in (dict(README_CERT, v0=v0), dict(README_CERT, partition=[["2", v0], []])):
            code, data = run_json(capsys, ["q", "verify", "--cert", json.dumps(cert)])
            assert code == 1 and list(data) == ["error"]

    # each place written as the CLI writes it, in a certificate where it is a
    # valid entry: v0 is an odd prime, so "inf" is read from a partition
    AS_WRITTEN = {
        "5": dict(README_CERT, v0="5"),
        "inf": {"class": [[-1, -1]], "a_list": [-1], "x_list": [-1], "v0": "3",
                "adjusted_a_list": [-1], "partition": [["inf", "2"]], "t_parities": [0]},
    }

    @pytest.mark.parametrize("place", ["5", "inf"])
    def test_place_as_written_verifies(self, capsys, place):
        cert = json.dumps(self.AS_WRITTEN[place])
        code, data = run_json(capsys, ["q", "verify", "--cert", cert])
        assert code == 0 and data == {"valid": True, "reason": "ok"}

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"adjusted_a_list": [2], "partition": [["2", "3"]]},
             "partition has 1 entries, a_list 2"),
            ({"t_parities": [0, 0, 1]}, "t_parities has 3 entries, a_list 2"),
            ({"adjusted_a_list": [5, 3]}, "adjusted leading entry 5 is not a_lead = 2"),
            ({"v0": "3"}, "v0 = 3 lies in the support"),
            ({"v0": "inf"}, "v0 = inf is not an odd prime"),
        ],
        ids=["short-lists", "long-parities", "adjusted-lead", "v0-in-support", "v0-real"],
    )
    def test_forged_stage_record_rejected(self, capsys, changes, reason):
        cert = json.dumps(dict(README_CERT, **changes))
        code, data = run_json(capsys, ["q", "verify", "--cert", cert])
        assert code == 0 and data == {"valid": False, "reason": reason}

    def test_integer_strings_only_as_written(self, capsys):
        big = 5 * 2**54  # written as a decimal string
        code, cert = run_json(
            capsys, ["q", "decompose", "--class", f"[[6, {big}]]", "--a", "[2, 3]"]
        )
        assert code == 0 and cert["class"] == [[6, str(big)]]
        code, data = run_json(capsys, ["q", "verify", "--cert", json.dumps(cert)])
        assert code == 0 and data == {"valid": True, "reason": "ok"}
        for small in ('"5"', f'"0{big}"', f'"+{big}"'):
            code, data = run_json(capsys, ["q", "invariants", "--class", f"[[6, {small}]]"])
            assert code == 1 and list(data) == ["error"]


class TestOrderBound:
    @pytest.mark.parametrize(
        "spec",
        [
            "cyclic:4097",
            json.dumps({"perm_degree": 8, "generators": [[2, 1, 3, 4, 5, 6, 7, 8],
                                                         [2, 3, 4, 5, 6, 7, 8, 1]]}),
        ],
        ids=["builtin", "permutations"],
    )
    def test_refused_before_allocating(self, capsys, spec):
        argv = ["group", "cohomology", "--group", spec, "--p", "2", "--degree", "1"]
        code, data = run_json(capsys, argv)
        assert code == 1 and "size guard" in data["error"]

    def test_h2_refused_before_allocating(self, capsys, monkeypatch):
        # order 1024 is admitted, but H^2 would need arrays of 1024^3 = 2^30
        # entries (8.6 GB each in int64): refused before Z^2 is solved for
        from masseybrauer import cochain_dga

        def never(*args):
            raise AssertionError("Z solved for past the size guard")

        monkeypatch.setattr(cochain_dga, "_cocycles", never)
        argv = ["group", "cohomology", "--group", "cyclic:1024", "--p", "2", "--degree", "2"]
        code, data = run_json(capsys, argv)
        assert code == 1 and list(data) == ["error"] and "size guard" in data["error"]
        assert "1073741824 > 16777216" in data["error"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "scan-vanishing", "--group", "elab:2:2", "--p", "2"],
            ["q", "decompose", "--class", "[[6, 5]]", "--a", "[2, 3]"],
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert first.endswith("\n")
