import pytest

from ccgamr.cli import main
from ccgamr.fixtures import LEXICON_PATH, gold, script

from support import nested

LEX = str(LEXICON_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fixture_lexicon(capsys):
    code, out, _ = run(capsys, "check", "--lexicon", LEX)
    assert code == 0
    assert "ok:" in out


def test_check_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.lex"
    bad.write_text("bad | NP | (?1 :mod (b/bad))\nfine | N | (c/cat)\n")
    code, out, _ = run(capsys, "check", "--lexicon", str(bad))
    assert code == 4
    assert "atomic category" in out and "violation" in out


def test_check_identity_under_atom_is_fine(tmp_path, capsys):
    lex = tmp_path / "id.lex"
    lex.write_text("null | NP | ID\n")
    code, _, _ = run(capsys, "check", "--lexicon", str(lex))
    assert code == 0


def test_parse_gold_match(capsys):
    code, out, _ = run(
        capsys,
        "parse", "--lexicon", LEX,
        "--sentence", "John was eaten by bears",
        "--gold", str(gold("passive")),
    )
    assert code == 0
    assert "gold: match" in out


def test_parse_divergence_returns_mismatch(capsys):
    code, out, _ = run(
        capsys,
        "parse", "--lexicon", LEX,
        "--sentence", "Tomorrow John may eat rice",
        "--gold", str(gold("modal_preposed_correct")),
    )
    assert code == 3
    assert "no derivation matches" in out


def test_parse_unknown_word(capsys):
    code, _, err = run(
        capsys, "parse", "--lexicon", LEX, "--sentence", "John grok the cat"
    )
    assert code == 2
    assert "grok" in err


def test_parse_all_prints_scripts(capsys):
    code, out, _ = run(
        capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--all"
    )
    assert code == 0
    assert "script:" in out and "(leaf" in out


def test_parse_goal_override(capsys):
    code, out, _ = run(
        capsys,
        "parse", "--lexicon", LEX, "--sentence", "math teachers",
        "--goal", "NP", "--gold", str(gold("math_teachers")),
    )
    assert code == 0


def test_parse_config_file_enables_raising(tmp_path, capsys):
    cfg = tmp_path / "parser.cfg"
    cfg.write_text("type_raise = NP > S\nmax_cell_items = 150\n")
    code, out, _ = run(
        capsys,
        "parse", "--lexicon", LEX,
        "--sentence", "John likes and Mary hates cats",
        "--config", str(cfg),
        "--gold", str(gold("coordination")),
    )
    assert code == 0
    assert "gold: match" in out


def test_parse_env_var_overrides_cell_limit(capsys, monkeypatch):
    monkeypatch.setenv("CCGAMR_MAX_CELL", "1")
    code, _, err = run(
        capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat"
    )
    assert code == 2
    assert "exceeded" in err


def test_replay_trace_ends_with_final_graph(capsys):
    code, out, _ = run(
        capsys,
        "replay", "--lexicon", LEX,
        "--derivation", str(script("wh_control")),
        "--trace", "--gold", str(gold("wh_control")),
    )
    assert code == 0
    for rule in (">RB", "<Bx", ">R"):
        assert rule in out
    assert "gold: match" in out
    assert "decide-01" in out.splitlines()[-2]


def test_replay_empty_script_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.ccg"
    empty.write_text("")
    code, _, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(empty))
    assert code == 1
    assert "empty" in err


def test_replay_variant_flip_reports_both(tmp_path, capsys):
    text = script("wh_control").read_text().replace("(>R (leaf 0 what.1)", "(> (leaf 0 what.1)", 1)
    flipped = tmp_path / "flipped.ccg"
    flipped.write_text(text)
    code, _, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(flipped))
    assert code == 4
    assert "'>'" in err and "'>R'" in err


def test_replay_missing_file(capsys):
    code, _, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", "/nonexistent.ccg")
    assert code == 1


def test_render_text(capsys):
    code, out, _ = run(capsys, "render", "--input", str(gold("passive")), "--format", "text")
    assert code == 0
    assert out.strip().startswith("(e/eat-01")


def test_render_dot_marks_variables_and_root(tmp_path, capsys):
    graph = tmp_path / "g.amr"
    graph.write_text("(?1 :? (c/cat))")
    code, out, _ = run(capsys, "render", "--input", str(graph), "--format", "dot")
    assert code == 0
    assert "shape=box" in out          # free variable drawn as a box
    assert "peripheries=2" in out      # root marked
    assert 'label="?"' in out          # underspecified edge label


def test_render_wh_control_dot_shows_reentrancy(capsys):
    code, out, _ = run(
        capsys,
        "render", "--input", str(script("wh_control")),
        "--lexicon", LEX, "--format", "dot",
    )
    assert code == 0
    assert out.count('[label="ARG0"]') == 2


def test_render_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.amr"
    bad.write_text("(p/person :name")
    code, _, err = run(capsys, "render", "--input", str(bad))
    assert code == 1


def test_compare_identical_files(capsys):
    code, out, _ = run(capsys, "compare", str(gold("passive")), str(gold("passive")))
    assert code == 0
    assert "isomorphic" in out


def test_compare_two_spellings_of_one_graph(tmp_path, capsys):
    a = tmp_path / "a.amr"
    b = tmp_path / "b.amr"
    a.write_text("(p/person :ARG0-of (t/teach-01 :ARG1 (m/math)))")
    b.write_text("(p/person :ARG0-of (t/teach-01 :ARG1 m/math))")
    code, out, _ = run(capsys, "compare", str(a), str(b))
    assert code == 0


def test_compare_divergence_names_reentrant_node(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        str(gold("right_node_raising")),
        str(gold("right_node_raising_correct")),
    )
    assert code == 3
    assert "eat-01" in out and "reentrant" in out


def test_compare_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.amr"
    bad.write_text("((((")
    code, _, err = run(capsys, "compare", str(bad), str(gold("passive")))
    assert code == 1


SENTENCE_GOLD = [
    ("John likes the cat", "like_cat", "S", False),
    ("John likes and Mary hates cats", "coordination", "S", True),
    ("John was eaten by bears", "passive", "S", False),
    ("What did you decide to eat yesterday", "wh_control", "S", False),
    ("math teachers", "math_teachers", "NP", False),
    ("people who teach math", "math_teachers", "NP", False),
    ("John made a decision on his major", "light_verb", "S", False),
    ("Mary seems to practice guitar often", "raising", "S", False),
    ("Mary wants to practice guitar", "subject_control", "S", False),
    ("Mary persuaded John to practice guitar", "object_control", "S", False),
    ("Who did you persuade to smile", "object_control_wh", "S", False),
    ("Mary bought a ticket to see the movie", "to_purpose", "S", False),
]

DIVERGENT = [
    ("Tomorrow John may eat rice", "modal_preposed", False),
    ("John arrived to eat and to party", "coordinated_purpose", False),
    ("I should and you may eat", "right_node_raising", True),
]


@pytest.fixture()
def raising_cfg(tmp_path):
    cfg = tmp_path / "raising.cfg"
    cfg.write_text("type_raise = NP > S\n")
    return str(cfg)


@pytest.mark.parametrize("sentence,goldname,goal,needs_raising", SENTENCE_GOLD)
def test_parse_gold_contract_matching(capsys, raising_cfg, sentence, goldname, goal, needs_raising):
    argv = ["parse", "--lexicon", LEX, "--sentence", sentence,
            "--goal", goal, "--gold", str(gold(goldname))]
    if needs_raising:
        argv += ["--config", raising_cfg]
    code, out, _ = run(capsys, *argv)
    assert code == 0, (sentence, out)


@pytest.mark.parametrize("sentence,goldname,needs_raising", DIVERGENT)
def test_parse_gold_contract_divergent(capsys, raising_cfg, sentence, goldname, needs_raising):
    argv = ["parse", "--lexicon", LEX, "--sentence", sentence]
    if needs_raising:
        argv += ["--config", raising_cfg]
    code, _, _ = run(capsys, *argv, "--gold", str(gold(goldname)))
    assert code == 0, sentence
    code, _, _ = run(capsys, *argv, "--gold", str(gold(goldname + "_correct")))
    assert code == 3, sentence


def test_check_rejects_arity_overflow(tmp_path, capsys):
    bad = tmp_path / "over.lex"
    bad.write_text("trip | S\\NP/NP | (t/try-01 :ARG0 ?3 :ARG1 (?1 :mod ?2))\n")
    code, out, _ = run(capsys, "check", "--lexicon", str(bad))
    assert code == 4
    assert "exceed" in out


def test_parse_missing_lexicon_is_io_error(capsys):
    code, _, err = run(capsys, "parse", "--lexicon", "/nonexistent.lex", "--sentence", "hi")
    assert code == 1
    assert "cannot read" in err


def test_check_missing_lexicon_is_io_error(capsys):
    code, _, err = run(capsys, "check", "--lexicon", "/nonexistent.lex")
    assert code == 1


def test_parse_invalid_lexicon_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.lex"
    bad.write_text("bad | NP | (?1 :mod (b/bad))\n")
    code, _, err = run(capsys, "parse", "--lexicon", str(bad), "--sentence", "bad")
    assert code == 4


def test_module_entry_point():
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "ccgamr", "check", "--lexicon", LEX],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok:" in proc.stdout


@pytest.mark.parametrize(
    "setting, env",
    [("max_composition_order = 3", None), ("max_cell_items = 0", None), (None, "0")],
)
def test_invalid_config_value_is_usage_error_without_traceback(tmp_path, setting, env):
    import os, subprocess, sys

    argv = [sys.executable, "-m", "ccgamr", "parse", "--lexicon", LEX, "--sentence", "John likes the cat"]
    if setting is not None:
        cfg = tmp_path / "parser.cfg"
        cfg.write_text(setting + "\n")
        argv += ["--config", str(cfg)]
    environ = dict(os.environ)
    if env is not None:
        environ["CCGAMR_MAX_CELL"] = env
    proc = subprocess.run(argv, capture_output=True, text=True, env=environ)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "must be" in line and "integer" not in line


def _compare_subprocess(tmp_path, text):
    import subprocess, sys

    path = tmp_path / "graph.amr"
    path.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "ccgamr", "compare", str(path), str(path)],
        capture_output=True, text=True,
    )


def test_compare_wide_flat_graph_is_isomorphic(tmp_path):
    wide = "(r / root " + " ".join(f":mod (c{i} / x)" for i in range(1500)) + ")"
    proc = _compare_subprocess(tmp_path, wide)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "isomorphic"
    assert "Traceback" not in proc.stderr


def test_compare_too_deep_graph_is_usage_error_without_traceback(tmp_path):
    proc = _compare_subprocess(tmp_path, nested(1200))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "nesting deeper than" in line


def test_replay_too_deep_script_is_usage_error_without_traceback(tmp_path):
    import subprocess, sys

    path = tmp_path / "deep.ccg"
    path.write_text("(>T[S] " * 1499 + "(leaf 0 john.1)" + ")" * 1499)
    proc = subprocess.run(
        [sys.executable, "-m", "ccgamr", "replay", "--lexicon", LEX, "--derivation", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "nesting deeper than" in line


def test_replay_trace_prints_deeply_raised_categories(tmp_path):
    import subprocess, sys

    path = tmp_path / "deep.ccg"
    path.write_text("(>T[S] " * 498 + "(leaf 0 john.1)" + ")" * 498)
    proc = subprocess.run(
        [sys.executable, "-m", "ccgamr", "replay", "--lexicon", LEX, "--derivation", str(path), "--trace"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert sum(line.startswith(">T[S]") for line in lines) == 498
    assert lines[2].split()[2] == "S/(S\\(S/(S\\NP)))"


def test_check_too_deep_category_is_validation_error_without_traceback(tmp_path):
    import subprocess, sys

    path = tmp_path / "deep.lex"
    path.write_text("deep | " + "(" * 1000 + "S" + ")" * 1000 + " | ID\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ccgamr", "check", "--lexicon", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [
        "deep.lex:1: nesting deeper than 500 levels at offset 500", "1 violation(s)"
    ]
