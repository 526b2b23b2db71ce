import json
import os
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import filterkit
from filterkit import Filter, emit_filter, emit_nfa, fig3_input, parse_filter
from filterkit.cli import main
from filterkit.nfa import Nfa, sigma_star, subset_construct

from oracles import random_filter
import random


@pytest.fixture()
def fig3_path(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(emit_filter(fig3_input()))
    return str(path)


def write_filter(tmp_path, f, name="f.json"):
    path = tmp_path / name
    path.write_text(emit_filter(f))
    return str(path)


# The directory that holds the imported package (``src`` in a checkout), and
# the project root whose pyproject.toml declares the console script.
PACKAGE_PARENT = Path(filterkit.__file__).resolve().parents[1]
PROJECT_ROOT = Path(__file__).resolve().parents[1]


def run_filterkit(*args, hash_seed=None):
    """Run ``python -m filterkit ARGS`` on the imported package, no install needed."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_PARENT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "filterkit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_script_version():
    out = run_filterkit("--version")
    assert out.returncode == 0
    assert out.stdout == f"filterkit {filterkit.__version__}\n"


def test_module_without_command_prints_usage():
    out = run_filterkit()
    assert out.returncode == 2
    assert "usage:" in out.stderr
    assert out.stdout == ""


def test_console_script_mapping_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(PROJECT_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    target = project["scripts"]["filterkit"]
    assert target == "filterkit.cli:main"
    entry = EntryPoint(name="filterkit", value=target, group="console_scripts")
    assert entry.load() is main
    assert project["version"] == filterkit.__version__


def test_export_dot_bytes_do_not_depend_on_hash_seed(tmp_path):
    path = str(tmp_path / "fig3min.json")
    assert main(["gen", "fig3", "minimizer", "-o", path]) == 0
    runs = [run_filterkit("export-dot", path, hash_seed=seed) for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    rank = {y: i for i, y in enumerate(parse_filter(Path(path).read_text()).observations)}
    labels = [line.split('label="')[1].split('"')[0]
              for line in runs[0].stdout.splitlines() if "->" in line and "label=" in line]
    assert labels
    for label in labels:
        symbols = label.split(",")
        assert symbols == sorted(symbols, key=rank.__getitem__)


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_validate(fig3_path, capsys):
    assert main(["validate", fig3_path]) == 0
    out = capsys.readouterr().out
    assert "states: 10" in out
    assert "deterministic: yes" in out
    assert "trim: yes" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_keeps_line_separators_in_ids(tmp_path, capsys):
    f = Filter(["a\u2028b", "c\x85"], ["a\u2028b"], ("y",), {("a\u2028b", "c\x85"): {"y"}},
               ("k",), {"a\u2028b": {"k"}, "c\x85": {"k"}})
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(f.to_dict(), indent=2, ensure_ascii=False), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "states: 2" in capsys.readouterr().out


def test_validate_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(emit_filter(fig3_input()).encode() + b"\xff")
    assert main(["validate", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_trace_alive_and_crash(fig3_path, capsys):
    assert main(["trace", "1a", fig3_path]) == 0
    out = capsys.readouterr().out
    assert "states: plus" in out
    assert "output: pink" in out
    # q1 has no f edge: crash is a semantic no, exit 1
    assert main(["trace", "1f", fig3_path]) == 1
    assert "crash" in capsys.readouterr().out


def test_trace_unknown_symbol(fig3_path, capsys):
    assert main(["trace", "9", fig3_path]) == 2
    assert "error:" in capsys.readouterr().err


def test_determinize_roundtrip(tmp_path, capsys):
    rng = random.Random(64)
    f = random_filter(rng)
    path = write_filter(tmp_path, f)
    assert main(["determinize", path]) == 0
    det = parse_filter(capsys.readouterr().out)
    assert det.is_deterministic()


def test_determinize_cap(fig3_path, capsys):
    assert main(["determinize", "--cap", "1", fig3_path]) == 3
    assert "error:" in capsys.readouterr().err


def test_check_sim_holds_and_fails(tmp_path, capsys):
    from filterkit import fig3_minimizer

    big = write_filter(tmp_path, fig3_input(), "big.json")
    small = write_filter(tmp_path, fig3_minimizer(), "small.json")
    assert main(["check-sim", small, big]) == 0
    assert capsys.readouterr().out == "holds\n"

    broken = fig3_minimizer().to_dict()
    for row in broken["transitions"]:
        if row["from"] == "p3" and row["to"] == "minus":
            row["symbols"] = ["a", "d"]
    bad = write_filter(tmp_path, Filter.from_dict(broken), "bad.json")
    assert main(["check-sim", bad, big]) == 1
    out = capsys.readouterr().out
    assert "fails: output-violation" in out
    assert "witness:" in out
    assert "color:" in out


def test_check_sim_cap(tmp_path, capsys):
    from filterkit import fig3_minimizer

    big = write_filter(tmp_path, fig3_input(), "big.json")
    small = write_filter(tmp_path, fig3_minimizer(), "small.json")
    assert main(["check-sim", "--cap", "1", small, big]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state cap 1 exceeded while checking output simulation\n"


def _one_state_filter():
    return {
        "observations": ["a"],
        "colors": ["c"],
        "states": [{"id": "s", "colors": ["c"]}],
        "initial": ["s"],
        "transitions": [{"from": "s", "to": "s", "symbols": ["a"]}],
    }


def _numeric_ids(doc):
    doc["states"][0]["id"] = 1
    doc["initial"] = [1]
    doc["transitions"][0].update({"from": 1, "to": 1})


def _numeric_symbol(doc):
    doc["observations"] = [1]
    doc["transitions"][0]["symbols"] = [1]


@pytest.mark.parametrize(
    "command, mutate",
    [
        (["determinize"], _numeric_ids),
        (["export-dot"], _numeric_symbol),
        (["trace", "1"], _numeric_symbol),
        (["validate"], lambda doc: doc.update(observations="ab")),
        (["validate"], lambda doc: doc.update(initial="s")),
        (["validate"], lambda doc: doc.update(colors="c")),
        (["validate"], lambda doc: doc.update(states={"s": ["c"]})),
        (["validate"], lambda doc: doc.update(transitions={})),
        (["validate"], lambda doc: doc["states"][0].update(colors=[0])),
        (["validate"], lambda doc: doc["transitions"][0].update(symbols="a")),
    ],
    ids=["numeric-ids", "numeric-symbol-dot", "numeric-symbol-trace",
         "string-observations", "string-initial", "string-colors", "dict-states",
         "dict-transitions", "numeric-color", "string-symbols"],
)
def test_non_string_filter_json_exits_2(tmp_path, capsys, command, mutate):
    doc = _one_state_filter()
    mutate(doc)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def _one_state_nfa():
    return {
        "alphabet": ["a"],
        "states": ["s"],
        "initial": ["s"],
        "accepting": ["s"],
        "transitions": [{"from": "s", "to": "s", "symbols": ["a"]}],
    }


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(alphabet="ab"),
        lambda doc: doc.update(states=[1], initial=[1], accepting=[1]),
        lambda doc: doc.update(initial="s"),
        lambda doc: doc.update(accepting="s"),
        lambda doc: doc.update(transitions={}),
        lambda doc: doc["transitions"][0].update(symbols="a"),
        lambda doc: doc["transitions"][0].update(symbols=[1]),
    ],
    ids=["string-alphabet", "numeric-states", "string-initial", "string-accepting",
         "dict-transitions", "string-symbols", "numeric-symbol"],
)
def test_non_string_nfa_json_exits_2(tmp_path, capsys, mutate):
    doc = _one_state_nfa()
    mutate(doc)
    path = tmp_path / "n.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", "nfa-universality", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_minimize_det_donut(tmp_path, capsys):
    from filterkit import donut_world

    path = write_filter(tmp_path, donut_world())
    assert main(["minimize", "--mode", "det", path]) == 0
    captured = capsys.readouterr()
    body = captured.out
    assert "# states: 4" in body
    assert "# proven_optimal: true" in body
    assert "# lower_bound: 4" in body
    assert parse_filter(body).size() == 4  # footer comments parse away
    assert "wall time" in captured.err
    # stdout is byte-identical on a second run
    assert main(["minimize", "--mode", "det", path]) == 0
    assert capsys.readouterr().out == body


def test_minimize_nondet_donut_is_proven_by_bounds(tmp_path, capsys):
    from filterkit import donut_world

    path = write_filter(tmp_path, donut_world())
    start = time.monotonic()
    assert main(["minimize", path, "--mode", "nondet"]) == 0
    assert time.monotonic() - start < 1.0
    out = capsys.readouterr().out
    assert out.endswith(
        "# states: 4\n# proven_optimal: true\n# lower_bound: 4\n# candidates: 8\n")
    assert parse_filter(out).size() == 4


def test_minimize_budget_exhaustion(fig3_path, capsys):
    code = main(["minimize", "--mode", "nondet", "--candidate-cap", "50", fig3_path])
    assert code == 3
    out = capsys.readouterr().out
    assert "# proven_optimal: false" in out
    assert parse_filter(out).size() == 10


@pytest.mark.parametrize("flag,value", [("--candidate-cap", "0"), ("--max-k", "-1"),
                                        ("--time-limit", "0"), ("--time-limit", "nan")])
def test_minimize_rejects_non_positive_budget(fig3_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["minimize", flag, value, fig3_path])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be positive" in capsys.readouterr().err


def test_minimize_output_file(tmp_path, capsys):
    from filterkit import donut_world

    path = write_filter(tmp_path, donut_world())
    dest = tmp_path / "min.json"
    assert main(["minimize", "--mode", "det", "-o", str(dest), path]) == 0
    assert parse_filter(dest.read_text()).size() == 4
    assert capsys.readouterr().out == ""


def test_gen_families(capsys):
    assert main(["gen", "fig3", "input"]) == 0
    assert parse_filter(capsys.readouterr().out) == fig3_input()
    assert main(["gen", "prime-family", "--rows", "2"]) == 0
    assert parse_filter(capsys.readouterr().out).size() == 11
    assert main(["gen", "prime-family", "--rows", "2", "--minimizer"]) == 0
    assert parse_filter(capsys.readouterr().out).size() == 10
    assert main(["gen", "donut"]) == 0
    assert parse_filter(capsys.readouterr().out).size() == 6


def test_gen_prime_family_rejects_huge_rows(capsys):
    assert main(["gen", "prime-family", "--rows", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_reduce_nfa_universality(tmp_path, capsys):
    nfa_path = tmp_path / "nfa.json"
    nfa_path.write_text(emit_nfa(sigma_star(("a", "b"))))
    assert main(["reduce", "nfa-universality", str(nfa_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# reduction: nfa-universality")
    f = parse_filter(out)
    assert "z" in f.observations


def test_reduce_dfa_union(tmp_path, capsys):
    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    d1.write_text(emit_nfa(subset_construct(sigma_star(("a",)))))
    d2.write_text(emit_nfa(subset_construct(sigma_star(("b",)))))
    assert main(["reduce", "dfa-union", str(d1), str(d2)]) == 0
    out = capsys.readouterr().out
    assert "# reduction: dfa-union-universality" in out
    parse_filter(out)


def test_reduce_dfa_union_no_accepting(tmp_path, capsys):
    empty = Nfa(["s"], ["s"], ("a",), {("s", "a"): frozenset({"s"})}, set())
    path = tmp_path / "empty.json"
    path.write_text(emit_nfa(subset_construct(empty)))
    assert main(["reduce", "dfa-union", str(path)]) == 1
    assert "no reduction:" in capsys.readouterr().err


def test_trim_command(tmp_path, capsys):
    f = Filter(
        ["a", "dead"],
        ["a"],
        ("y",),
        {},
        ("c",),
        {"a": {"c"}, "dead": {"c"}},
    )
    path = write_filter(tmp_path, f)
    assert main(["trim", path]) == 0
    assert parse_filter(capsys.readouterr().out).size() == 1


def test_export_dot(fig3_path, capsys):
    assert main(["export-dot", fig3_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph filter {")
    assert '"q0"' in out


def test_gen_output_is_byte_deterministic(capsys):
    assert main(["gen", "fig3", "minimizer"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "fig3", "minimizer"]) == 0
    assert capsys.readouterr().out == first
