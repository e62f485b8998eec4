"""End-to-end runs of the console entry point."""

import json
import os

import pytest

from apdpro import bench
from apdpro.cli import main
from helpers import write_edge_list


def _write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "run.csv"
    cfg = _write_config(tmp_path, (
        "[instance]\nkind = synthetic\n"
        "[solver]\nvariant = apdpro\nmax_iters = 500\n"
        "[reference]\nmode = oracle\n"
        f"[output]\npath = {out}\n"
    ))
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert f"wrote {out}" in captured
    assert "apdpro: completed" in captured
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 501
    assert sorted(os.listdir(tmp_path)) == ["exp.ini", "run.csv"]  # one variant: the path itself


def test_compare_writes_one_csv_per_variant(tmp_path, capsys):
    """``run`` with several variants writes <stem>-<variant>.csv for each and prints a summary for each."""
    out = tmp_path / "cmp.csv"
    cfg = _write_config(tmp_path, (
        "[instance]\nkind = synthetic\n"
        "[solver]\nvariants = apdpro, apd\nmax_iters = 200\n"
        "[reference]\nmode = oracle\n"
        f"[output]\npath = {out}\n"
    ))
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    for variant in ("apdpro", "apd"):
        path = tmp_path / f"cmp-{variant}.csv"
        assert f"{variant}: completed after 200 recorded iterations" in captured
        assert f"wrote {path}" in captured
        assert len(path.read_text(encoding="utf-8").splitlines()) == 201
    assert sorted(os.listdir(tmp_path)) == ["cmp-apd.csv", "cmp-apdpro.csv", "exp.ini"]


def test_a_one_entry_variant_list_writes_the_plain_path(tmp_path, capsys):
    out = tmp_path / "one"  # no extension: kept as written
    cfg = _write_config(tmp_path, (
        "[instance]\nkind = synthetic\n"
        "[solver]\nvariants = rapdpro\nmax_iters = 100\n"
        "[reference]\nmode = oracle\n"
        f"[output]\npath = {out}\n"
    ))
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("rapdpro: ") and captured.endswith(f"wrote {out}\n")
    assert sorted(os.listdir(tmp_path)) == ["exp.ini", "one"]


def test_compare_is_no_longer_a_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[instance]\nkind = synthetic\n")
    with pytest.raises(SystemExit) as info:
        main(["compare", "--config", cfg])
    assert info.value.code == 2
    assert "invalid choice: 'compare'" in capsys.readouterr().err


def test_reference_oracle_prints_objective(tmp_path, capsys):
    cfg = _write_config(tmp_path, (
        "[instance]\nkind = synthetic\n"
        "[reference]\nmode = oracle\n"
    ))
    assert main(["reference", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "reference for synthetic: f* = 0.585786437627" in out
    assert "KKT residual" in out and out.splitlines()[0].endswith(", method oracle")
    assert "cached at" not in out


def test_reference_reports_a_long_run_that_did_not_converge(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, (
        "[instance]\nkind = synthetic\nn = 3\n"
        "[reference]\nmode = long-run\n"
        f"[output]\npath = {tmp_path / 'ref.csv'}\n"
    ))
    monkeypatch.setattr(bench, "_REFERENCE_ITERS", 1)
    monkeypatch.setattr(bench, "_REFERENCE_EPOCHS", 0)
    with pytest.warns(UserWarning, match="reference unavailable"):
        assert main(["reference", "--config", cfg]) == 1
    assert capsys.readouterr().out == "reference unavailable (long run did not converge)\n"
    assert os.listdir(tmp_path) == ["exp.ini"]  # no reference cache


def test_reference_long_run_caches(tmp_path, capsys):
    graph = write_edge_list(tmp_path / "p2.txt", [(0, 1)])
    cfg = _write_config(tmp_path, (
        f"[instance]\nkind = graph\npath = {graph}\nalpha = 0.5\nb = -0.05\n"
        "[reference]\nmode = long-run\n"
    ))
    assert main(["reference", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "reference for p2.txt: f* =" in out
    assert "cached at" in out
    caches = [p for p in os.listdir(tmp_path) if p.startswith(".ref-")]
    assert len(caches) == 1
    # The method comes from the cache, also when the reference is read back from it.
    assert main(["reference", "--config", cfg]) == 0
    again = capsys.readouterr().out
    for printed in (out, again):
        assert printed.splitlines()[0].endswith(", method active-set (1 step)")


def test_reference_prints_no_method_for_a_cache_that_records_none(tmp_path, capsys):
    """A cache written before the method was recorded still loads (get_reference reads it), and
    the command prints its reference without a method instead of failing on the missing key."""
    graph = write_edge_list(tmp_path / "p4.txt", [(0, 1), (1, 2), (2, 3)])
    cfg = _write_config(tmp_path, (
        f"[instance]\nkind = graph\npath = {graph}\nalpha = 0.5\nb = -0.02\n"
        "[reference]\nmode = long-run\n"
    ))
    assert main(["reference", "--config", cfg]) == 0
    first = capsys.readouterr().out.splitlines()
    (cache,) = [tmp_path / p for p in os.listdir(tmp_path) if p.startswith(".ref-")]
    payload = json.loads(cache.read_text(encoding="utf-8"))
    for key in ("method", "steps"):
        del payload[key]
    cache.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["reference", "--config", cfg]) == 0
    again = capsys.readouterr().out.splitlines()
    assert first[0].endswith(", method active-set (1 step)")
    assert again == [first[0].removesuffix(", method active-set (1 step)"), first[1]]


def _assert_config_fault(tmp_path, capsys, command, text, message):
    """The command exits 2 with one 'error:' line and writes nothing."""
    cfg = _write_config(tmp_path, "[instance]\nkind = synthetic\n" + text)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message} in the config\n"
    assert os.listdir(tmp_path) == ["exp.ini"]


def test_run_requires_output_section(tmp_path, capsys):
    _assert_config_fault(tmp_path, capsys, "run", "", "run needs [output] path")


@pytest.mark.parametrize("command, text, message", [
    ("reference", "[reference]\nmode = none\n", "reference subcommand needs [reference] mode"),
], ids=["reference"])
def test_compare_and_reference_require_their_sections(tmp_path, capsys, command, text, message):
    _assert_config_fault(tmp_path, capsys, command, text, message)


def test_bad_config_returns_error_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[instance]\nkind = synthetic\nbogus = 1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    capsys.readouterr()
    cfg = _write_config(tmp_path, "[instance]\nkind = synthetic\nkind = graph\n")  # configparser's own error
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and cfg in err and "[line 3]" in err, err


def test_misspelled_variant_fails_before_any_work(tmp_path, capsys):
    """The whole variant list is checked when the config loads, not when the loop reaches the typo."""
    out = tmp_path / "cmp.csv"
    cfg = _write_config(tmp_path, (
        "[instance]\nkind = synthetic\n"
        "[solver]\nvariants = apdpro, rapdpr\n"
        "[reference]\nmode = oracle\n"
        f"[output]\npath = {out}\n"
    ))
    assert main(["run", "--config", cfg]) == 2
    assert "unknown variant 'rapdpr'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.ini"]  # no trace of apdpro, the variant before it


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("command", ["run", "reference"])
def test_bad_instance_is_an_error_line_not_a_traceback(tmp_path, capsys, command):
    """A malformed or missing graph file, an unattainable b and a nan b exit 2 with one 'error:' line."""
    (tmp_path / "bad.txt").write_text("0 1\n1 x\n", encoding="utf-8")
    good = write_edge_list(tmp_path / "p2.txt", [(0, 1)])
    out = tmp_path / "run.csv"
    for graph, b, message in (
        (tmp_path / "bad.txt", -0.05, "line 2: non-integer node id"),
        (tmp_path / "missing.txt", -0.05, "No such file or directory"),
        (good, -10.0, "target level b=-10 unattainable"),
        (good, "nan", "b must be finite, got nan"),
    ):
        cfg = _write_config(tmp_path, (
            f"[instance]\nkind = graph\npath = {graph}\nalpha = 0.5\nb = {b}\n"
            "[reference]\nmode = long-run\n"
            f"[output]\npath = {out}\n"
        ))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
    assert not out.exists()
