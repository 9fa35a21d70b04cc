import pytest

from ccgamr.cli import build_parser, main
from ccgamr.fixtures import LEXICON_PATH, gold, script

from support import REPLAY_FAILURES, deep_lexicon_text, nested

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


def test_parse_blank_sentence_is_one_error_line(capsys):
    code, out, err = run(capsys, "parse", "--lexicon", LEX, "--sentence", "   ")
    assert (code, out, err) == (1, "", "error: empty sentence\n")


def test_parse_goal_without_derivation(capsys):
    code, out, err = run(capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--goal", "PP")
    assert (code, out) == (2, "")
    assert "no derivation over goal category 'PP'" in err


@pytest.mark.parametrize("goal", ["S[dcl]", "s"])
def test_parse_unknown_goal_is_one_error_line(capsys, goal):
    code, out, err = run(capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--goal", goal)
    assert (code, out) == (1, "")
    assert err == f"error: goal must be one of S, NP, N, PP, Conj, found {goal!r}\n"


def test_parse_empty_goal_is_one_error_line(capsys):
    code, out, err = run(capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--goal", "")
    assert (code, out, err) == (1, "", "error: goal must not be empty\n")


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


#: ``parse --all`` output for a raised coordination: four classes (one per
#: pair of name readings), each with its script and forest count.
RAISED_COORDINATION_ALL = """\
(a/and :op1 (l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (c/cat :ARG1-of (h/hate-01 :ARG0 (p2/person :name (n2/name :op1 "Mary"))))) :op2 h)
  category: S
  script:   (> (& (>RB (>T[S] (leaf 0 john.1)) (leaf 1 likes.1)) (& (leaf 2 and.1) (>RB (>T[S] (leaf 3 mary.1)) (leaf 4 hates.1)))) (leaf 5 cats.1))
  forest:   4 derivation(s) in this class
(a/and :op1 (l/like-01 :ARG0 (p/person :name (n/name :op1 "John")) :ARG1 (c/cat :ARG1-of (h/hate-01 :ARG0 (p2/person :name m/Mary)))) :op2 h)
  category: S
  script:   (> (& (>RB (>T[S] (leaf 0 john.1)) (leaf 1 likes.1)) (& (leaf 2 and.1) (>RB (>T[S] (leaf 3 mary.2)) (leaf 4 hates.1)))) (leaf 5 cats.1))
  forest:   4 derivation(s) in this class
(a/and :op1 (l/like-01 :ARG0 (p/person :name j/John) :ARG1 (c/cat :ARG1-of (h/hate-01 :ARG0 (p2/person :name (n/name :op1 "Mary"))))) :op2 h)
  category: S
  script:   (> (& (>RB (>T[S] (leaf 0 john.2)) (leaf 1 likes.1)) (& (leaf 2 and.1) (>RB (>T[S] (leaf 3 mary.1)) (leaf 4 hates.1)))) (leaf 5 cats.1))
  forest:   4 derivation(s) in this class
(a/and :op1 (l/like-01 :ARG0 (p/person :name j/John) :ARG1 (c/cat :ARG1-of (h/hate-01 :ARG0 (p2/person :name m/Mary)))) :op2 h)
  category: S
  script:   (> (& (>RB (>T[S] (leaf 0 john.2)) (leaf 1 likes.1)) (& (leaf 2 and.1) (>RB (>T[S] (leaf 3 mary.2)) (leaf 4 hates.1)))) (leaf 5 cats.1))
  forest:   4 derivation(s) in this class
"""


def test_parse_all_prints_scripts_and_forest_counts(tmp_path, capsys):
    cfg = tmp_path / "parser.cfg"
    cfg.write_text("type_raise = NP > S\n")
    code, out, err = run(
        capsys,
        "parse", "--lexicon", LEX,
        "--sentence", "John likes and Mary hates cats",
        "--config", str(cfg), "--all",
    )
    assert (code, err) == (0, "")
    assert out == RAISED_COORDINATION_ALL


@pytest.mark.parametrize(
    "setting, message",
    [
        ("max_cell_items = 2.5", "max_cell_items must be an integer"),
        ("max_cell_items = --5", "max_cell_items must be an integer, found '--5'"),
        ("max_composition_order = \u00b2", "max_composition_order must be an integer, found '\u00b2'"),
        pytest.param(
            "type_raise = NP >", "bad type_raise rule 'NP >': missing target category",
            id="type_raise = NP >-expected a category",
        ),
        ("max_composition_order = 3", "max_composition_order must be 1 or 2"),
        ("strict_conjunction = maybe", "strict_conjunction must be one of"),
        ("goal =", "goal must not be empty"),
        ("goal = s", "goal must be one of S, NP, N, PP, Conj, found 's'"),
        ("goal = S[dcl]", "goal must be one of S, NP, N, PP, Conj, found 'S[dcl]'"),
        ("combinators = >, <, frob", "unknown combinator 'frob'"),
        ("combinators = >b", "unknown combinator '>b'"),
        ("combinators = >, >x", "unknown combinator '>x'"),
        ("combinators = <Rx, <R", "unknown combinator '<Rx'"),
        ("combinators = >, >T[frob]", "bad combinator '>T[frob]': unknown atomic category 'frob'"),
        ("combinators = &, >, >RB, >T[(S)]", "combinator '>T[(S)]' is spelled '>T[S]'"),
        ("max_composition_order = 1\ncombinators = >B2", "combinator '>B2' needs max_composition_order = 2"),
        ("combinators = <RB2x\nmax_composition_order = 1", "combinator '<RB2x' needs max_composition_order = 2"),
        ("combinators = >\ncombinators = <", "duplicate key 'combinators'"),
        ("combinators =", "combinators must name at least one combinator"),
    ],
)
def test_config_error_is_one_line_with_its_source_line(tmp_path, capsys, setting, message):
    cfg = tmp_path / "parser.cfg"
    cfg.write_text(f"type_raise = NP > S\n{setting}\n")
    code, out, err = run(
        capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--config", str(cfg)
    )
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    # the setting's last line is the one that fails
    assert line.startswith(f"error: {cfg}:{2 + setting.count(chr(10))}: {message}")


@pytest.mark.parametrize("limit", ["--5", "\u00b2", "2.5"])
def test_parse_env_var_must_be_an_integer(capsys, monkeypatch, limit):
    monkeypatch.setenv("CCGAMR_MAX_CELL", limit)
    code, out, err = run(capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: CCGAMR_MAX_CELL must be an integer, found '{limit}'"]


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_parse_env_var_below_one_names_the_variable(capsys, monkeypatch, limit):
    """No config file sets max_cell_items, so the error names the variable."""
    monkeypatch.setenv("CCGAMR_MAX_CELL", limit)
    code, out, err = run(capsys, "parse", "--lexicon", LEX, "--sentence", "John likes the cat")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: CCGAMR_MAX_CELL must be at least 1, found '{limit}'"]


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


def test_replay_of_a_raise_to_a_functor_category(tmp_path, capsys):
    """The raise name '>T[S/(S\\NP)]' has parentheses in its target."""
    path = tmp_path / "raised.ccg"
    path.write_text("(>T[S/(S\\NP)] (leaf 0 john.1))")
    code, out, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(path), "--trace")
    assert (code, err) == (0, "")
    assert ">T[S/(S\\NP)]" in out


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


def test_replay_crossed_flip_reports_both(tmp_path, capsys):
    text = script("wh_control").read_text().replace("(<Bx ", "(<B ", 1)
    flipped = tmp_path / "flipped.ccg"
    flipped.write_text(text)
    code, _, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(flipped))
    assert code == 4
    assert "script names '<B' but the engine derives '<Bx'" in err


def test_replay_of_a_coordination_whose_conjuncts_are_not_adjacent_is_invalid(tmp_path, capsys):
    bad = tmp_path / "apart.ccg"
    bad.write_text("(& (leaf 5 john.1) (& (leaf 1 and.1) (leaf 2 mary.1)))\n")
    code, out, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(bad), "--trace")
    assert (code, out) == (4, "")
    assert err.splitlines() == [
        "replay failed: step root: '&' failed: left conjunct and conjunction are not adjacent"
    ]


@pytest.mark.parametrize("text,message", REPLAY_FAILURES[:4], ids=["and", "raise-foo", "raise-id", "raise-spelling"])
def test_a_failed_replay_step_exits_4_with_its_cause(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.ccg"
    bad.write_text(text)
    code, out, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(bad), "--trace")
    assert (code, out, err) == (4, "", f"replay failed: {message}\n")


def test_replay_of_a_script_with_trailing_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "trailing.ccg"
    bad.write_text("(leaf 0 john.1) x")
    code, out, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(bad))
    assert (code, out, err) == (1, "", "error: bad derivation script: trailing script input 'x'\n")


def test_replay_trace_shows_a_pending_conjunction(capsys):
    code, out, _ = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(script("coordination")), "--trace")
    inner, outer = [line for line in out.splitlines() if line.startswith("& ")]
    assert code == 0 and inner.endswith(" <pending conjunction>") and "pending" not in outer


def test_replay_of_an_unknown_entry_names_it_once_quoted(tmp_path, capsys):
    bad = tmp_path / "unknown.ccg"
    bad.write_text("(> (leaf 0 nosuch.1) (leaf 1 john.1))\n")
    code, out, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", str(bad))
    assert (code, out, err) == (4, "", "replay failed: step 0: no lexical entry with id 'nosuch.1'\n")
    code, out, err = run(capsys, "render", "--input", str(bad), "--lexicon", LEX)
    assert (code, out, err) == (1, "", "error: step 0: no lexical entry with id 'nosuch.1'\n")


def test_replay_missing_file(capsys):
    code, _, err = run(capsys, "replay", "--lexicon", LEX, "--derivation", "/nonexistent.ccg")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--all"],
        ["replay", "--lexicon", LEX, "--derivation", str(script("wh_control")), "--trace"],
    ],
    ids=["parse", "replay"],
)
@pytest.mark.parametrize(
    "text,message",
    [
        (None, "error: cannot read {path}: "),
        ("(a / b", "error: bad gold graph: unexpected end of input (at offset 6)"),
    ],
    ids=["missing", "malformed"],
)
def test_a_bad_gold_file_stops_the_command_before_it_prints(tmp_path, capsys, argv, text, message):
    path = tmp_path / "gold.amr"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *argv, "--gold", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(message.format(path=path))


def test_repeated_main_calls_in_one_process_are_independent(capsys):
    """``main`` reuses one parser per process, and each call gives what it
    gives after ``build_parser.cache_clear()``, in either order."""
    argvs = [
        ["parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--gold", str(gold("like_cat"))],
        ["parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--all"],
        ["parse", "--lexicon", LEX, "--sentence", "John grok the cat"],
        ["replay", "--lexicon", LEX, "--derivation", str(script("wh_control")), "--trace",
         "--gold", str(gold("wh_control"))],
        ["replay", "--lexicon", LEX, "--derivation", str(script("passive"))],
        ["check", "--lexicon", LEX],
        ["render", "--input", str(gold("passive")), "--format", "dot"],
        ["render", "--input", str(script("passive")), "--lexicon", LEX],
        ["compare", str(gold("right_node_raising")), str(gold("right_node_raising_correct"))],
        ["--help"],
        ["parse", "--help"],
        [],
        ["frobnicate"],
        ["parse", "--lexicon", LEX],
    ]

    def call(argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 0, 0, 3, 0, 0, 1, 1, 1]
    build_parser.cache_clear()
    for argv, expected in [*zip(argvs, fresh), *reversed([*zip(argvs, fresh)])]:
        assert call(argv) == expected, argv
    assert build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("text", ["(leaf / leaf-01 :ARG1 (t / tree))", "(leaf :ARG1 (t / tree))"])
def test_render_graph_headed_by_leaf(tmp_path, capsys, text):
    graph = tmp_path / "leaf.amr"
    graph.write_text(text)
    code, out, err = run(capsys, "render", "--input", str(graph), "--format", "text")
    assert (code, err) == (0, "")
    assert "tree" in out


def test_render_script_needs_lexicon(capsys):
    code, out, err = run(capsys, "render", "--input", str(script("wh_control")))
    assert (code, out, err) == (1, "", "error: rendering a derivation needs --lexicon\n")


def test_render_identity_leaf_has_no_graph(tmp_path, capsys):
    leaf = tmp_path / "the.ccg"
    leaf.write_text("(leaf 0 the.1)")
    code, out, err = run(capsys, "render", "--input", str(leaf), "--lexicon", LEX)
    assert (code, out, err) == (1, "", "error: derivation has no graph semantics to render\n")


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


def test_compare_counts_repeated_edge_signatures(tmp_path, capsys):
    a = tmp_path / "a.amr"
    b = tmp_path / "b.amr"
    a.write_text("(r/r :p (a/a) :p (a2/a) :q (a3/a))")
    b.write_text("(r/r :p (a/a) :q (a2/a) :q (a3/a))")
    code, out, _ = run(capsys, "compare", str(a), str(b))
    assert code == 3
    assert out == "not isomorphic: edge [r :p a] appears 2 vs 1 times\n"


@pytest.mark.parametrize(
    "first, second, witness",
    [
        (
            "(a / alpha :ARG0 ?1 :ARG1 ?2)",
            "(a / alpha :ARG0 ?2 :ARG1 ?1)",
            "edge [alpha :ARG0 ?1] appears only in the first graph",
        ),
        (
            "(a / alpha :ARG0 (b / beta) :ARG1 (b2 / beta) :ARG4 (g / gamma :ARG2 b :ARG3 b2))",
            "(a / alpha :ARG0 (b / beta) :ARG1 (b2 / beta) :ARG4 (g / gamma :ARG2 b2 :ARG3 b2))",
            "reentrancy differs at the 'beta' node: incoming-edge counts [2, 2] vs [1, 3]",
        ),
        ("(a / alpha :ARG0 (b / beta))", "(b / beta :ARG0-of (a / alpha))", "roots differ: 'alpha' vs 'beta'"),
        (
            "(a / alpha :ARG0 (b / beta) :ARG1 (b2 / beta :ARG2 (c / gamma)))",
            "(a / alpha :ARG0 (b / beta :ARG2 (c / gamma)) :ARG1 (b2 / beta))",
            "same concepts, edges and incoming-edge counts, but the edges join different nodes",
        ),
    ],
    ids=["edge-in-first-only", "reentrancy", "root", "same-counts"],
)
def test_compare_witness_names_the_difference(tmp_path, capsys, first, second, witness):
    a, b = tmp_path / "a.amr", tmp_path / "b.amr"
    a.write_text(first)
    b.write_text(second)
    code, out, err = run(capsys, "compare", str(a), str(b))
    assert (code, out, err) == (3, f"not isomorphic: {witness}\n", "")


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


def test_repeated_check_sees_an_edited_lexicon(tmp_path, capsys):
    path = tmp_path / "edit.lex"
    path.write_text("john | NP | (j/john)\n")
    assert run(capsys, "check", "--lexicon", str(path)) == (0, "ok: 1 entries, 1 distinct tokens\n", "")
    path.write_text("john | NP | (j/john)\nmary | NP | (m/mary)\n")
    assert run(capsys, "check", "--lexicon", str(path)) == (0, "ok: 2 entries, 2 distinct tokens\n", "")
    path.write_text("bad | NP | (?1 :mod (b/bad))\n")
    code, out, _ = run(capsys, "check", "--lexicon", str(path))
    assert code == 4 and "atomic category" in out


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


@pytest.mark.parametrize("command", ["replay", "render"])
@pytest.mark.parametrize("index", ["\u00b2", "\u0661"])
def test_non_ascii_leaf_index_is_usage_error_without_traceback(tmp_path, command, index):
    import subprocess, sys

    path = tmp_path / "leaf.ccg"
    path.write_text(f"(leaf {index} john.1)\n", encoding="utf-8")
    flag = "--derivation" if command == "replay" else "--input"
    proc = subprocess.run(
        [sys.executable, "-m", "ccgamr", command, "--lexicon", LEX, flag, str(path)],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and f"leaf index must be an integer, found '{index}'" in line


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


@pytest.mark.parametrize(
    "command",
    [
        ["compare", "{bad}", "{bad}"],
        ["check", "--lexicon", "{bad}"],
        ["render", "--input", "{bad}"],
        ["parse", "--lexicon", "{bad}", "--sentence", "John likes the cat"],
        ["replay", "--lexicon", LEX, "--derivation", "{bad}"],
    ],
)
def test_non_utf8_file_is_usage_error_without_traceback(tmp_path, command):
    import subprocess, sys

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    argv = [arg.format(bad=bad) for arg in command]
    proc = subprocess.run([sys.executable, "-m", "ccgamr", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot read") and "bad.bin" in line


@pytest.mark.parametrize(
    "sentence, code, out",
    [("big and big", 2, ""), ("wide big", 0, "(w/wide :mod b/big)\n")],
)
def test_parse_deep_categories_without_traceback(tmp_path, sentence, code, out):
    import subprocess, sys

    path = tmp_path / "deep.lex"
    path.write_text(deep_lexicon_text())
    proc = subprocess.run(
        [sys.executable, "-m", "ccgamr", "parse", "--lexicon", str(path), "--sentence", sentence],
        capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stdout == out


SMALL_LEXICON = "john | NP | (j/john)\nsleeps | S\\NP | (s/sleep-01 :ARG0 ?1)\n"


def test_parse_reads_a_lexicon_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    lex = tmp_path / "bom.lex"
    lex.write_text(SMALL_LEXICON, encoding="utf-8-sig")
    code, out, err = run(capsys, "parse", "--lexicon", str(lex), "--sentence", "john sleeps")
    assert (code, out, err) == (0, "(s/sleep-01 :ARG0 j/john)\n", "")


def test_compare_reads_a_graph_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    bom, plain = tmp_path / "bom.amr", tmp_path / "plain.amr"
    bom.write_text("(j/john)\n", encoding="utf-8-sig")
    plain.write_text("(j/john)\n")
    code, out, err = run(capsys, "compare", str(bom), str(plain))
    assert (code, out, err) == (0, "isomorphic\n", "")


def test_parse_reads_a_config_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    lex, cfg = tmp_path / "small.lex", tmp_path / "bom.cfg"
    lex.write_text(SMALL_LEXICON)
    cfg.write_text("goal = NP\n", encoding="utf-8-sig")
    code, out, err = run(capsys, "parse", "--lexicon", str(lex), "--sentence", "john", "--config", str(cfg))
    assert (code, out, err) == (0, "(j/john)\n", "")
