import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from knowtell import cli
from knowtell.checks import CheckConfig, CheckReport, Violation
from knowtell.cli import emit_report, load_scenario, load_trace, main
from knowtell.oracle import MAX_ORACLE_DEPTH

SRC = str(Path(__file__).resolve().parents[1] / "src")

WORKED = {
    "facts": ["a", "b", "c"],
    "side_a": ["a"],
    "side_b": ["b"],
    "model": "communication",
}


@pytest.fixture
def scenario_path(write_json):
    return write_json(WORKED)


def test_load_scenario(scenario_path):
    scenario = load_scenario(scenario_path)
    assert scenario.facts == ("a", "b", "c")
    assert scenario.side_a == {"a"}


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({**WORKED, "side_a": ["z"]}, "side_a"),
        ({**WORKED, "model": "quantum"}, "model"),
        ({**WORKED, "facts": ["a", "a", "b"]}, "duplicate"),
        ({**WORKED, "facts": "abc"}, "array"),
        ({"facts": ["a"], "side_a": [], "side_b": []}, "model"),
        ([1, 2], "object"),
    ],
)
def test_load_scenario_errors(write_json, payload, needle):
    with pytest.raises(cli.InputError) as err:
        load_scenario(write_json(payload))
    assert needle in str(err.value)


@pytest.mark.parametrize("model", [7, None, ["x"], "x"],
                         ids=["int", "null", "list", "bad-string"])
def test_any_bad_model_gets_the_same_error(capsys, write_json, model):
    path = write_json({**WORKED, "model": model})
    assert main(["saturate", path]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: model must be one of 'communication', "
        f"'understanding', got {model!r}\n")


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(cli.InputError) as err:
        load_scenario(str(path))
    assert "bad JSON" in str(err.value)


@pytest.mark.parametrize("content,needle", [
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 100_000, "bad JSON: nested too deeply"),
    (b"1" * 5_000, "bad JSON"),
], ids=["not-utf8", "nested-too-deeply", "integer-too-long"])
def test_undecodable_input_is_bad_input(capsys, tmp_path, scenario_path,
                                        content, needle):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for argv in (["saturate", str(path)], ["trace", scenario_path, str(path)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and needle in err
        assert "Traceback" not in err


def test_load_trace(write_json):
    events = load_trace(write_json([{"from": 1, "to": 2, "msg": "a"}]))
    assert len(events) == 1
    assert events[0].sender == 1 and str(events[0].message) == "a"
    assert load_trace(write_json([])) == []


@pytest.mark.parametrize(
    "payload,needle",
    [
        ([{"from": 1, "to": 2, "msg": "a.3"}], "[0]"),
        ([{"from": 1, "to": 2}], "msg"),
        ([{"from": 1, "to": 1, "msg": "a"}], "different"),
        ([{"from": 3, "to": 2, "msg": "a"}], "1 or 2"),
        ({"from": 1}, "array"),
        ([42], "object"),
    ],
)
def test_load_trace_errors(write_json, payload, needle):
    with pytest.raises(cli.InputError) as err:
        load_trace(write_json(payload))
    assert needle in str(err.value)


def test_check_clean_run(capsys):
    code = main(["check", "--max-facts", "1", "--traces", "5", "--depth", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    assert "PASS language-equivalence" in out


def test_check_defaults_are_check_configs(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_all_checks", lambda config: ran.append(config) or [])
    assert main(["check"]) == 0
    assert main(["check", "--mutate", "no-understanding"]) == 0
    assert ran == [CheckConfig(), CheckConfig(disable_understanding=True)]


def test_check_json_schema(capsys):
    code = main(["check", "--max-facts", "1", "--traces", "5", "--depth", "3",
                 "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 5
    expected_keys = ["check", "scenarios", "violations", "notes", "status",
                     "millis"]
    ordered = json.loads(out, object_pairs_hook=list)
    for entry in ordered:
        assert [key for key, _ in entry] == expected_keys
    assert all(item["status"] == "pass" for item in payload)


def test_check_json_carries_the_text_notes(capsys):
    args = ["check", "--max-facts", "2", "--traces", "5", "--depth", "3"]
    assert main(args) == 0
    text_notes = [line.split("note: ", 1)[1]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("     note: ")]
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert text_notes
    assert [n for item in payload for n in item["notes"]] == text_notes


def test_check_mutated_fails_with_witness(capsys):
    code = main(["check", "--max-facts", "1", "--traces", "5", "--depth", "3",
                 "--mutate", "no-understanding", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [item for item in payload if item["status"] == "fail"]
    assert [item["check"] for item in failing] == ["success-theorems"]
    witnesses = failing[0]["violations"]
    assert witnesses
    assert "understanding" in witnesses[0]["scenario"]


def test_emit_report_byte_identical():
    reports = [CheckReport("demo", 3, (Violation("s", "w"),), 17)]
    assert emit_report(reports, "json") == emit_report(reports, "json")
    assert emit_report(reports, "text") == emit_report(reports, "text")


def test_saturate_summary(capsys, scenario_path):
    assert main(["saturate", scenario_path]) == 0
    out = capsys.readouterr().out
    assert "side 1 knows: a" in out
    assert "languages equal: false" in out
    assert "project success: false" in out


def test_saturate_emit_regex(capsys, scenario_path):
    assert main(["saturate", scenario_path, "--emit-regex"]) == 0
    out = capsys.readouterr().out
    assert "side 1 fact a: 1*(12+1*)*" in out
    assert "side 2 fact c: 0" in out


def test_saturate_selection(capsys, scenario_path):
    assert main(["saturate", scenario_path, "--emit-regex", "--side", "1",
                 "--fact", "a"]) == 0
    out = capsys.readouterr().out
    assert "side 1 fact a" in out
    assert "side 1 fact b" not in out
    assert "side 2 fact" not in out


def test_saturate_dot_export(capsys, scenario_path, tmp_path):
    dot_path = tmp_path / "a.dot"
    assert main(["saturate", scenario_path, "--side", "1", "--fact", "a",
                 "--emit-dot", str(dot_path)]) == 0
    text = dot_path.read_text(encoding="utf-8")
    assert text.startswith("digraph side1_a {")
    assert "doublecircle" in text


def test_saturate_dot_needs_single_selection(capsys, scenario_path, tmp_path):
    code = main(["saturate", scenario_path, "--emit-dot",
                 str(tmp_path / "x.dot")])
    assert code == 3
    assert "exactly one acceptor" in capsys.readouterr().err


def test_saturate_unknown_fact(capsys, scenario_path):
    assert main(["saturate", scenario_path, "--fact", "z",
                 "--emit-regex"]) == 3


def test_trace_queries(capsys, scenario_path, write_json):
    trace_path = write_json([
        {"from": 1, "to": 2, "msg": "a"},
        {"from": 2, "to": 1, "msg": "a.1"},
    ])
    code = main(["trace", scenario_path, trace_path,
                 "--query", "knows 2 a.1",
                 "--query", "knows 1 a.1.2",
                 "--query", "knows 1 b",
                 "--query", "ck a"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "true", "true", "false", "false"
    ]


def test_trace_summary(capsys, scenario_path, write_json):
    trace_path = write_json([])
    assert main(["trace", scenario_path, trace_path]) == 0
    out = capsys.readouterr().out
    assert "side 1 knows: a" in out
    assert "side 2 knows: b" in out


def test_trace_untruthful_event(capsys, scenario_path, write_json):
    trace_path = write_json([{"from": 1, "to": 2, "msg": "b"}])
    assert main(["trace", scenario_path, trace_path]) == 3
    assert "event 0" in capsys.readouterr().err


@pytest.mark.parametrize("agent", [True, 1.0, "1"])
def test_trace_rejects_agent_ids_that_are_not_ints(capsys, scenario_path,
                                                   write_json, agent):
    trace_path = write_json([{"from": agent, "to": 2, "msg": "a"}])
    assert main(["trace", scenario_path, trace_path]) == 3
    err = capsys.readouterr().err
    assert "1 or 2" in err and "Traceback" not in err


def test_trace_bad_query(capsys, scenario_path, write_json):
    trace_path = write_json([])
    assert main(["trace", scenario_path, trace_path,
                 "--query", "believes 1 a"]) == 3


AGREEMENT_TRACE = [
    {"from": 1, "to": 2, "msg": "a"},
    {"from": 2, "to": 1, "msg": "a.1"},
]


@pytest.mark.parametrize("query,is_query", [
    ("knows 1 a", True),
    ("knows 2 a.1", True),
    ("knows 1 b", True),
    ("ck a", True),
    ("ck b", True),
    ("knows 1 a..", False),
    ("ck z", False),
    ("believes 1 a", False),
], ids=["knows-1", "knows-2", "knows-false", "ck-a", "ck-b",
        "malformed-sentence", "unknown-fact", "not-a-query"])
def test_trace_and_repl_answer_alike(capsys, monkeypatch, scenario_path,
                                     write_json, query, is_query):
    code = main(["trace", scenario_path, write_json(AGREEMENT_TRACE),
                 "--query", query])
    traced = capsys.readouterr()
    tells = "".join(f"tell {e['from']} {e['to']} {e['msg']}\n"
                    for e in AGREEMENT_TRACE)
    monkeypatch.setattr(sys, "stdin", io.StringIO(tells + query + "\n"))
    assert main(["repl", scenario_path]) == 0
    replied = capsys.readouterr().out.splitlines()
    assert replied[:-1] == ["ok"] * len(AGREEMENT_TRACE)
    if is_query:
        assert code == 0 and traced.out.splitlines() == replied[-1:]
        assert replied[-1] in ("true", "false")
    else:
        assert code == 3 and traced.err.startswith("error: ")
        assert "Traceback" not in traced.err
        assert replied[-1].startswith("error: ")


def test_oracle_compare(capsys, scenario_path):
    assert main(["oracle-compare", scenario_path, "--depth", "4"]) == 0
    assert "zero mismatches" in capsys.readouterr().out


def test_usage_errors():
    assert main(["check", "--nope"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["check", "--max-facts", "5"],
    ["check", "--max-facts", "0"],
    ["check", "--depth", "-2"],
    ["check", "--traces", "0"],
    ["check", "--traces", "-3"],
    ["oracle-compare", "scenario.json", "--depth", "-1"],
    ["check", "--depth", str(MAX_ORACLE_DEPTH + 1)],
    ["oracle-compare", "scenario.json", "--depth", str(MAX_ORACLE_DEPTH + 1)],
    ["oracle-compare", "scenario.json", "--depth", "1000000"],
], ids=["max-facts-5", "max-facts-0", "depth-neg", "traces-0", "traces-neg",
        "oracle-depth-neg", "depth-over-limit", "oracle-depth-over-limit",
        "oracle-depth-huge"])
def test_out_of_range_options_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage: knowtell" in err and argv[-2] in err
    assert "Traceback" not in err


def test_depth_limit_is_accepted():
    parser = cli.build_parser()
    for argv in (["check", "--depth", str(MAX_ORACLE_DEPTH)],
                 ["oracle-compare", "scenario.json", "--depth", str(MAX_ORACLE_DEPTH)]):
        assert parser.parse_args(argv).depth == MAX_ORACLE_DEPTH


def test_missing_file(capsys):
    assert main(["saturate", "/no/such/file.json"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_repl_session(capsys, scenario_path, monkeypatch):
    script = "\n".join([
        "facts",
        "tell 1 2 a",
        "knows 2 a.1",
        "tell 1 2 b",
        "ck a",
        "frobnicate",
        "knows 2 a.3",
        "quit",
    ]) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(script))
    assert main(["repl", scenario_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "side 1 knows: a",
        "side 2 knows: b",
        "ok",
        "true",
        "error: side 1 does not know 'b'",
        "false",
        "error: unknown command 'frobnicate'",
        "error: agent mark must be '1' or '2', got '3' (at position 2)",
    ]


def test_module_entry_point(scenario_path):
    proc = subprocess.run(
        [sys.executable, "-m", "knowtell", "saturate", scenario_path],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "side 1 knows: a" in proc.stdout
