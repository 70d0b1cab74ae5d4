import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Each call is the only one in its interpreter, so it must bring in scipy itself.
CALLS = {
    "control_from_samples": "ts = np.linspace(0, 1, 101)\n"
                            "f = wk.control_from_samples(ts, np.where(ts > 0.2, (ts - 0.2) ** 6, 0))\n"
                            "assert abs(f.sample(np.array([0.7]))[0][0, 0] - 0.5 ** 6) < 1e-9",
    "h2_norm_spline": "grid = np.linspace(0, 1, 2001)\n"
                      "assert abs(wk.h2_norm(grid, grid ** 2) - (83 / 15) ** 0.5) < 1e-5",
}


def _run_fresh(script: str, *args: str) -> None:
    """Run script in a new interpreter that imports the package from this tree."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("call", CALLS)
def test_cli_import_leaves_scipy_out(call):
    _run_fresh("import sys\nimport numpy as np\nimport wavekernel as wk, wavekernel.cli\n"
               "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
               + CALLS[call] + "\nassert 'scipy.interpolate' in sys.modules\n")


def test_cli_import_leaves_orjson_out_until_a_table_is_written(tmp_path):
    # only commands that write a CSV import the writer's formatter
    _run_fresh("import sys\nimport numpy as np\nimport wavekernel, wavekernel.cli\n"
               "from wavekernel.fileio import write_table\n"
               "assert 'orjson' not in sys.modules\n"
               "write_table(sys.argv[1], ('x',), (), np.zeros((2, 1)), np.zeros((2, 0)))\n"
               "assert 'orjson' in sys.modules\n", str(tmp_path / "t.csv"))


def test_bench_tracer_names_resolve():
    # the benchmark wraps these names in place; a refactor that drops one breaks it
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for mod, attr in tracer.WRAPPED:
        owner = importlib.import_module(f"wavekernel.{mod}")
        assert callable(getattr(owner, attr, None)), f"wavekernel.{mod}.{attr}"
    from wavekernel.goursat import KernelField
    assert inspect.isfunction(KernelField.__dict__.get("wtt_lattice"))


def test_bench_library_names_resolve():
    # bench/worker.py, bench/check.py and bench/test_bench.py call these names with
    # these arguments; a refactor that drops or reshapes one breaks the benchmark
    import wavekernel as wk
    from wavekernel import cli, potential
    calls = [
        (wk.initial_v0, ("p", 1.0, 0.01), {}),
        (cli.solve_goursat, ("p", 1.0, 0.01, 1e-10), {}),
        (wk.solve_goursat, ("p", 1.0, 0.01, 1e-10), {}),
        (cli.main, (["kernel"],), {}),
        (wk.load_kernel, ("k.csv", "k.json", "p"), {}),
        (wk.propagate, ("field", "control", 1.0, 100), {}),
        (wk.fd_solve, ("p", "control", "cfg"), {}),
        (wk.compare, ("snap", "fd"), {}),
        (wk.WaveSnapshot, (), {"T": 1.0, "grid": 0, "u": 0, "u_x": 0, "u_xx": 0}),
        (wk.bump_control, (1.0, 0.1, 0.9, 1.0), {}),
        (wk.sampled_potential, ("xs", "vals"), {}),
        (wk.build_potential, ("spec",), {}),
        (wk.parse_potential_file, ("pot.txt",), {}),
        (potential.parse_complex, ("1+2j",), {}),
        (wk.FDConfig, (), {"N_x": 16, "T": 1.0}),
    ]
    for fn, args, kwargs in calls:
        assert callable(fn), fn
        inspect.signature(fn).bind(*args, **kwargs)
    assert wk.FDConfig(N_x=16, T=1.0).cfl > 0      # tracer._fd_counts reads cfl


def test_no_unread_parameters():
    # every parameter of every function in the package is read in its body;
    # the one exception is the (cfg, out, seed) signature all cli.cmd_* share
    unread = []
    for path in sorted((ROOT / "src" / "wavekernel").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None]
            if path.name == "cli.py" and name.startswith("cmd_"):
                assert params == ["cfg", "out", "seed"], name
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            unread += [f"{path.name}:{fn.lineno} {name}({p})" for p in params if p not in read]
    assert not unread, unread


def test_public_names_are_listed_in_the_readme():
    # every name in backticks in README's "Library API" section is an export,
    # and every export but the version string is named there
    import wavekernel as wk
    readme = (ROOT / "README.md").read_text()
    assert "\n## Library API\n" in readme
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    exported = set(wk.__all__) - {"__version__"}
    assert listed == exported, sorted(listed ^ exported)


def test_cli_reference_in_the_readme():
    # the `wavekernel <command>` lines of README's command block are cli._COMMANDS,
    # and the first column of its "Config keys" table is cli._CONFIG_KEYS
    from wavekernel import cli
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    assert re.findall(r"^wavekernel (\w+) ", block, re.M) == list(cli._COMMANDS)
    keys = section.split("\n### Config keys\n", 1)[1]
    table = re.search(r"(^\|.*\n)+", keys, re.M).group()
    listed = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert sorted(listed) == sorted(cli._CONFIG_KEYS), sorted(set(listed) ^ cli._CONFIG_KEYS)
    assert f"The run config has {len(cli._CONFIG_KEYS)} keys." in keys
