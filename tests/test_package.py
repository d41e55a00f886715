"""The package namespace resolves lazily, and the Brauer side of the CLI
starts without the group engine, numpy or dataclasses."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import masseybrauer
from masseybrauer import lgp_decompose

SRC = str(Path(__file__).resolve().parents[1] / "src")

CERT = ('{"class": [[6, 5]], "a_list": [2, 3], "x_list": [3, 1], "v0": "5", '
        '"adjusted_a_list": [2, 3], "partition": [["2", "3"], []], '
        '"t_parities": [0, 0], "verified": true}')

# the q calls of perfbench's cli-cold workload and their golden stdout
Q_CALLS = [
    (["q", "hilbert", "--a", "2", "--b", "3", "--place", "2"], '{"symbol": -1}\n'),
    (["q", "invariants", "--class", "[[2,3]]"],
     '{"invariants": [{"place": "2", "inv": "1/2"}, {"place": "3", "inv": "1/2"}]}\n'),
    (["q", "split", "--class", "[[2,3]]", "--a", "[2]"], '{"splits": true}\n'),
    (["q", "decompose", "--class", "[[6,5]]", "--a", "[2,3]"], CERT + "\n"),
    (["q", "verify", "--cert", CERT], '{"valid": true, "reason": "ok"}\n'),
]


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


class TestNumpyFreeStart:
    @pytest.mark.parametrize("module", ["masseybrauer", "masseybrauer.cli"])
    def test_import_loads_no_numpy(self, module):
        done = fresh_python(f"import sys, {module}; assert 'numpy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_cli_import_loads_only_what_every_command_needs(self):
        # lgp_decompose (and with it dataclasses, which imports inspect) is
        # imported by the q decompose and q verify handlers when they run
        done = fresh_python(
            "import sys, masseybrauer.cli\n"
            "loaded = [m for m in ('numpy', 'dataclasses', 'inspect',\n"
            "                      'masseybrauer.lgp_decompose') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv, golden", Q_CALLS, ids=[c[0][1] for c in Q_CALLS])
    def test_q_command_loads_no_numpy(self, argv, golden):
        done = fresh_python(
            "import sys\n"
            "from masseybrauer import cli\n"
            "code = cli.run(sys.argv[1:])\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "sys.exit(code)\n",
            *argv,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == golden

    def test_group_command_still_runs(self):
        done = fresh_python(
            "import sys\n"
            "from masseybrauer import cli\n"
            "sys.exit(cli.run(sys.argv[1:]))\n",
            "group", "cohomology", "--group", "cyclic:2", "--p", "2", "--degree", "1",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == '{"group_order": 2, "p": 2, "degree": 1, "dim": 1, "representatives": [[0, 1]]}\n'


class TestLazyNamespace:
    def test_names_resolve_to_their_home_objects(self):
        assert masseybrauer.decompose is lgp_decompose.decompose
        for name in masseybrauer.__all__:
            obj = getattr(masseybrauer, name)
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("masseybrauer.")
            assert getattr(home, name) is obj, name

    def test_all_is_unique_and_listed_by_dir(self):
        names = masseybrauer.__all__
        assert len(names) == len(set(names)) == 58
        assert set(names) <= set(dir(masseybrauer))

    def test_star_import(self):
        namespace: dict = {}
        exec("from masseybrauer import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(masseybrauer.__all__)
        assert namespace["FiniteGroup"] is masseybrauer.group_core.FiniteGroup

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            masseybrauer.no_such_name  # noqa: B018
        assert not hasattr(masseybrauer, "is_prime")  # re-exported by no table entry
