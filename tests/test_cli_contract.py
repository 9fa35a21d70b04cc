"""Every command returns an exit status in 0-4, and lets no exception escape
``main``, on damaged copies of the bundled fixture files.

Each case damages one input file with one to three seeded mutations: bytes
deleted or inserted (syntax characters and arbitrary bytes, so some copies
are not UTF-8), a truncation, or a duplicated span.
"""

import random

import pytest

from ccgamr.cli import main
from ccgamr.fixtures import LEXICON_PATH, gold, script

LEX = str(LEXICON_PATH)
CONFIG = "max_composition_order = 2\nmax_cell_items = 50\ntype_raise = NP > S\n"
CASES = 60

# command: (argv with {file} where the mutated copy goes, the file it copies)
COMMANDS = {
    "check": (["check", "--lexicon", "{file}"], LEXICON_PATH),
    "parse-lexicon": (["parse", "--lexicon", "{file}", "--sentence", "John likes the cat"], LEXICON_PATH),
    "parse-gold": (
        ["parse", "--lexicon", LEX, "--sentence", "John likes the cat", "--gold", "{file}"],
        gold("like_cat"),
    ),
    "parse-config": (
        ["parse", "--lexicon", LEX, "--sentence", "I should and you may eat", "--config", "{file}"],
        CONFIG,
    ),
    "replay": (["replay", "--lexicon", LEX, "--derivation", "{file}", "--trace"], script("wh_control")),
    "replay-gold": (
        ["replay", "--lexicon", LEX, "--derivation", str(script("like_cat")), "--gold", "{file}"],
        gold("like_cat"),
    ),
    "render-graph": (["render", "--input", "{file}", "--format", "dot"], gold("wh_control")),
    "render-script": (["render", "--input", "{file}", "--lexicon", LEX], script("passive")),
    "compare": (["compare", str(gold("coordination")), "{file}"], gold("coordination")),
}

_SYNTAX = b"()/\\|:?#\"[]<>&=,.- \n\tSNP"


def mutate(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(("delete", "insert", "truncate", "duplicate"))
    if kind == "delete":
        return data[:at] + data[at + rng.randint(1, 8):]
    if kind == "insert":
        pool = _SYNTAX if rng.random() < 0.8 else bytes(range(256))
        return data[:at] + bytes(rng.choice(pool) for _ in range(rng.randint(1, 4))) + data[at:]
    if kind == "truncate":
        return data[:at]
    end = min(len(data), at + rng.randint(1, 40))
    return data[:end] + data[at:end] + data[end:]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_damaged_input_files_keep_the_exit_contract(tmp_path, capsys, command):
    template, source = COMMANDS[command]
    data = source.encode() if isinstance(source, str) else source.read_bytes()
    rng = random.Random(command)
    path = tmp_path / "input"
    for case in range(CASES):
        damaged = data
        for _ in range(rng.randint(1, 3)):
            damaged = mutate(damaged, rng)
        path.write_bytes(damaged)
        try:
            code = main([arg.format(file=path) for arg in template])
        except Exception as err:
            pytest.fail(f"{command} case {case} raised {err!r} on {damaged!r}")
        assert code in range(5), (command, case, damaged)
    capsys.readouterr()
