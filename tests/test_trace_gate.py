"""tools/trace_gate.py's compare on hand-written dumps."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _trace_gate():
    spec = importlib.util.spec_from_file_location("trace_gate", ROOT / "tools" / "trace_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(path, iters=3, rel_gap="0.25", objective="1.5"):
    rows = [["1", "0", objective, rel_gap], ["2", "0", "1.25", ""]]
    data = {"columns": ["iter", "epoch", "objective", "rel_gap"],
            "runs": {"w seed 0": {"workload": "w", "solves": {"g/apd": {"iters": iters, "rows": rows}}}}}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_compare_passes_equal_dumps_and_fails_a_mismatch(tmp_path, capsys):
    compare = _trace_gate().main
    base = _dump(tmp_path / "a.json")
    assert compare(["compare", base, _dump(tmp_path / "b.json"), "--rel", "1e-12"]) == 0
    assert "differing       0" in capsys.readouterr().out
    assert compare(["compare", base, _dump(tmp_path / "c.json", iters=4), "--rel", "1e-12"]) == 1
    out = capsys.readouterr().out
    assert "3 iterations vs 4" in out
    assert "apd iterations 3 -> 4" in out
    # below 1 the bound is absolute: 1e-13 passes, 1e-11 does not; above 1 it is relative
    assert compare(["compare", base, _dump(tmp_path / "d.json", rel_gap="0.2500000000001"), "--rel", "1e-12"]) == 0
    assert compare(["compare", base, _dump(tmp_path / "e.json", rel_gap="0.25000000001"), "--rel", "1e-12"]) == 1
    assert compare(["compare", base, _dump(tmp_path / "f.json", objective="1.5000000000001"), "--rel", "1e-12"]) == 0
    assert compare(["compare", base, _dump(tmp_path / "g.json", rel_gap=""), "--rel", "1e-12"]) == 1


def test_compare_gates_only_the_listed_variants(tmp_path, capsys):
    """A solve of a variant left out of --variants may differ; one of a listed variant may not."""
    compare = _trace_gate().main
    rows = [["1", "0", "1.5", "0.25"]]

    def dump(name, msapd_iters):
        solves = {"g/apd": {"iters": 1, "rows": rows}, "g/msapd": {"iters": msapd_iters, "rows": rows}}
        data = {"columns": ["iter", "epoch", "objective", "rel_gap"],
                "runs": {"w seed 0": {"workload": "w", "solves": solves}}}
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
        return str(tmp_path / name)

    a, b = dump("a.json", 1), dump("b.json", 2)
    assert compare(["compare", a, b, "--variants", "apd", "rapdpro"]) == 0
    out = capsys.readouterr().out
    assert "1 solves, 0 with a different" in out
    assert "apd iterations 1 -> 1" in out and "msapd iterations" not in out  # --variants filters the totals
    assert compare(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert "g/msapd: 1 iterations vs 2" in out
    assert "msapd iterations 1 -> 2" in out
    assert compare(["compare", a, b, "--variants", "msapd"]) == 1
