import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import wavekernel as wk
from wavekernel import errors

from conftest import NOT_ARRAYS

TYPED_ERRORS = tuple(c for c in vars(errors).values()
                     if isinstance(c, type) and issubclass(c, Exception))

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


def test_input_checks_are_named_in_the_readme():
    # every errors.check_* rule is named in README's "Inputs are checked" paragraph
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("\nInputs are checked ", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`errors\.(check_\w+)`", paragraph))
    rules = {name for name in vars(errors) if name.startswith("check_")}
    assert rules == named, sorted(rules ^ named)


# The refusal table of the public API.  Each public name has either the
# reason it takes no number or array of numbers, or a row: a function of the
# valid objects of the api fixture that gives a callable and valid keyword
# arguments for it, and the arguments to drive, each with the NOT_ARRAYS
# values it legitimately takes: none for a REAL one, "complex" for a complex
# one, "None" where None is its default.  Methods and returned evaluators
# that take points have rows too.
REAL, COMPLEX, OPTIONAL = (), {"complex"}, {"None"}
REFUSAL_TABLE = {
    "PotentialGrid": (lambda o: (wk.PotentialGrid, dict(x_max=2.0, step=1.0,
                                                        samples=np.ones((3, 1, 1)))),
                      {"x_max": REAL, "step": REAL, "samples": COMPLEX}),
    "PotentialGrid.eval": (lambda o: (o.p.eval, dict(x=0.5)), {"x": REAL}),
    "zero_potential": (lambda o: (wk.zero_potential, dict(dim=1, x_max=1.0, step=0.25)),
                       {"dim": REAL, "x_max": REAL, "step": REAL}),
    "constant_potential": (lambda o: (wk.constant_potential,
                                      dict(matrix=1.0, x_max=1.0, step=0.25)),
                           {"matrix": COMPLEX, "x_max": REAL, "step": REAL}),
    "sampled_potential": (lambda o: (wk.sampled_potential, dict(x=o.ts, values=o.ts)),
                          {"x": REAL, "values": COMPLEX}),
    "preset_potential": (lambda o: (wk.preset_potential, dict(name="one", x_max=1.0, step=0.25)),
                         {"x_max": REAL, "step": REAL}),
    "integral_Q": (lambda o: (wk.integral_Q, dict(p=o.p, a=0.1, b=0.5)),
                   {"a": REAL, "b": REAL}),
    "norm_constants": (lambda o: (wk.norm_constants, dict(p=o.p, T=1.0)), {"T": REAL}),
    "KernelField.q_at": (lambda o: (o.f.q_at, dict(pts=0.5)), {"pts": REAL}),
    "initial_v0": (lambda o: (wk.initial_v0, dict(p=o.p, T=1.0, h=0.125)),
                   {"T": REAL, "h": REAL}),
    "solve_goursat": (lambda o: (wk.solve_goursat, dict(p=o.p, T=1.0, h=0.125, tol=1e-10)),
                      {"T": REAL, "h": REAL, "tol": REAL}),
    **{fn.__name__: (lambda o, fn=fn: (fn, dict(f=o.f, x=0.2, t=0.5)), {"x": REAL, "t": REAL})
       for fn in (wk.kernel_w, wk.wtilde_x, wk.wtt_explicit)},
    "split_w": (lambda o: (wk.split_w, dict(p=o.p, f=o.f, x=0.2, t=0.5)),
                {"x": REAL, "t": REAL}),
    "derivatives_v": (lambda o: (wk.derivatives_v, dict(p=o.p, f=o.f, xi=0.2, eta=0.5)),
                      {"xi": REAL, "eta": REAL}),
    "Control": (lambda o: (wk.Control, dict(T=1.0, dim=1, _eval=o.ctrl._eval)),
                {"T": REAL, "dim": REAL}),
    "Control.sample": (lambda o: (o.ctrl.sample, dict(t=0.5)), {"t": REAL}),
    "zero_control": (lambda o: (wk.zero_control, dict(T=1.0, dim=1)),
                     {"T": REAL, "dim": REAL}),
    **{fn.__name__: (lambda o, fn=fn: (fn, dict(T=1.0, start=0.1, stop=0.9, amplitude=1.0)),
                     {"T": REAL, "start": REAL, "stop": REAL, "amplitude": COMPLEX})
       for fn in (wk.bump_control, wk.ramp_control)},
    "control_from_samples": (lambda o: (wk.control_from_samples,
                                        dict(ts=o.ts, values=o.ts ** 6, T=1.0)),
                             {"ts": REAL, "values": COMPLEX, "T": OPTIONAL}),
    "random_smooth_control": (lambda o: (wk.random_smooth_control,
                                         dict(T=1.0, dim=1, rng=np.random.default_rng(0))),
                              {"T": REAL, "dim": REAL}),
    "propagate": (lambda o: (wk.propagate, dict(field=o.f, f=o.ctrl, T=1.0, N=8)),
                  {"T": REAL, "N": REAL}),
    "u_tt": (lambda o: (wk.u_tt, dict(field=o.f, f=o.ctrl, x=0.2, t=0.5)),
             {"x": REAL, "t": REAL}),
    "difference_quotient_test": (lambda o: (wk.difference_quotient_test,
                                            dict(field=o.f, f=o.ctrl, t=0.5, h_list=[0.1, 0.05])),
                                 {"t": REAL, "h_list": REAL}),
    "reflect": (lambda o: (wk.reflect, dict(g=o.snap.u)), {"g": COMPLEX}),
    "build_volterra": (lambda o: (wk.build_volterra, dict(field=o.f, T=1.0, N=8)),
                       {"T": REAL, "N": REAL}),
    "invert_W": (lambda o: (wk.invert_W, dict(tab=o.tab, u=o.snap.u)), {"u": COMPLEX}),
    "neumann_partial_sums": (lambda o: (wk.neumann_partial_sums,
                                        dict(tab=o.tab, u=o.snap.u, terms=2)),
                             {"u": COMPLEX, "terms": REAL}),
    "h2_norm": (lambda o: (wk.h2_norm, dict(grid=o.ts, g=o.ts, g1=o.ts, g2=o.ts)),
                {"grid": REAL, "g": COMPLEX, "g1": COMPLEX | OPTIONAL,
                 "g2": COMPLEX | OPTIONAL}),
    **{fn.__name__: (lambda o, fn=fn: (fn, dict(field=o.f, p=o.p, T=1.0, trials=2, N=8, seed=0)),
                     {"T": REAL, "trials": REAL, "N": REAL, "seed": REAL})
       for fn in (wk.measure_h2_bound, wk.certify_h2_bound)},
    "WeylSolution.eval": (lambda o: (o.K.eval, dict(x=0.5)), {"x": REAL}),
    "weyl_solution": (lambda o: (wk.weyl_solution, dict(p=o.p, X=1.5, c=1.0)),
                      {"X": REAL, "c": COMPLEX}),
    "lambda_map": (lambda o: (wk.lambda_map, dict(K=o.K, vec=[1.0])), {"vec": COMPLEX}),
    "lambda_map()": (lambda o: (wk.lambda_map(o.K, [1.0]), dict(x=0.5)), {"x": REAL}),
    "lift_control()": (lambda o: (wk.lift_control(o.K, o.ctrl), dict(t=0.5, x=0.5)),
                       {"t": REAL, "x": REAL}),
    "FDConfig": (lambda o: (wk.FDConfig, dict(N_x=16, T=1.0, cfl=1.0)),
                 {"N_x": REAL, "T": REAL, "cfl": REAL}),
    "bessel_kernel_constant": (lambda o: (wk.bessel_kernel_constant, dict(c=1.0, x=0.2, t=0.5)),
                               {"c": REAL, "x": REAL, "t": REAL}),
    "bessel_substitution_residual": (lambda o: (wk.bessel_substitution_residual,
                                                dict(c=1.0, points=[(0.3, 0.9)])),
                                     {"c": REAL, "points": REAL}),
    "compare": (lambda o: (wk.compare, dict(a=o.snap, b=o.snap)), {"a": REAL, "b": REAL}),
}
RECORD = "a record the library returns"
NO_NUMBERS = {
    "build_potential": "a spec mapping, whose values reach the constructors' rows",
    "parse_potential_file": "a file path",
    "KernelField": RECORD + "; q_at has a row",
    "KernelConstants": RECORD,
    "GoursatReport": RECORD,
    "kernel_constants": "a KernelField",
    "check_goursat": "a potential and a KernelField",
    "bound_violations": "a KernelField",
    "dump_kernel": "a KernelField and two file paths",
    "load_kernel": "two file paths and a potential",
    "WaveSnapshot": RECORD,
    "DifferenceQuotientReport": RECORD,
    "SobolevReport": RECORD,
    "condition_estimate": "an OperatorTables",
    "WeylSolution": RECORD + "; eval has a row",
    "dump_weyl": "a WeylSolution and a file path",
    "lift_control": "a WeylSolution and a Control; its evaluator has a row",
    "fd_solve": "a potential, a Control and an FDConfig, each with a row",
}


@pytest.fixture(scope="module")
def api():
    """Valid objects for the refusal table's calls."""
    p = wk.preset_potential("one", x_max=2.0, step=1 / 64)
    f = wk.solve_goursat(p, 1.0, 1 / 16, 1e-10)
    ctrl = wk.bump_control(1.0, 0.1, 0.9)
    return types.SimpleNamespace(p=p, f=f, ctrl=ctrl, snap=wk.propagate(f, ctrl, 1.0, 8),
                                 tab=wk.build_volterra(f, 1.0, 8),
                                 ts=np.linspace(0.0, 1.0, 11), K=wk.weyl_solution(p, 1.5, 1.0))


@pytest.mark.parametrize("name", REFUSAL_TABLE)
def test_refusal_table_calls_are_valid(api, name):
    # each row's call, as given, returns normally: a refusal below is the bad value's
    fn, kwargs = REFUSAL_TABLE[name][0](api)
    fn(**kwargs)


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("name, arg, bad", [
    pytest.param(name, arg, bad, id=f"{name}-{arg}-{key}")
    for name, (_, args) in REFUSAL_TABLE.items() for arg, accepts in args.items()
    for key, bad in NOT_ARRAYS.items() if key not in accepts])
def test_public_api_refuses_what_is_not_finite_numbers(api, name, arg, bad):
    # one of the package's typed errors, never a bare numpy or Python error, and
    # never a complex value truncated to its real part; an empty array may pass
    fn, kwargs = REFUSAL_TABLE[name][0](api)
    try:
        fn(**{**kwargs, arg: bad})
    except TYPED_ERRORS:
        return
    assert isinstance(bad, np.ndarray) and bad.size == 0, f"accepted {bad!r}"


def test_every_public_name_has_a_refusal_row_or_a_reason():
    rows = {re.match(r"\w+", name).group() for name in REFUSAL_TABLE}
    exported = set(wk.__all__) - {"__version__"}
    assert rows <= exported, sorted(rows - exported)
    assert not set(REFUSAL_TABLE) & set(NO_NUMBERS), sorted(set(REFUSAL_TABLE) & set(NO_NUMBERS))
    assert rows | set(NO_NUMBERS) == exported, sorted(exported - rows - set(NO_NUMBERS))


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
