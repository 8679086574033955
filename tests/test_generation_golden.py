"""Greedy and beam outputs of the benchmark's desk checkpoint, compared
token for token with a golden recorded once.

``golden_generation.json`` holds 200 held-out queries (from
``perfbench/workloads.heldout_records(GOLDEN_SEED, 200)``, small-pool
queries the checkpoint never trained on) and, per query, the greedy,
beam-1, beam-3 and beam-5 outputs of ``perfbench/fixture/desk.ckpt``.
Any rewrite of the decoder must reproduce every one of them.

The golden was recorded at commit bf10318 by running this file as a
script.  It is never re-recorded to make a change pass: a change that
moves an output changes what the model generates, and says so.
"""

import json
import sys
from pathlib import Path

import pytest

from sql2text.checkpoint import load_checkpoint, restore_model

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).with_name("golden_generation.json")
CHECKPOINT = ROOT / "perfbench" / "fixture" / "desk.ckpt"
GOLDEN_SEED = 2026
GOLDEN_QUERIES = 200
MODES = {"greedy": {"greedy": True}, "beam1": {"beam_size": 1}, "beam3": {"beam_size": 3}, "beam5": {"beam_size": 5}}


def outputs(model, sql: str) -> dict:
    return {mode: model.generate(sql, **kwargs) for mode, kwargs in MODES.items()}


@pytest.fixture(scope="module")
def fixture_model():
    return restore_model(load_checkpoint(CHECKPOINT))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_mode(golden):
    assert len(golden["queries"]) == GOLDEN_QUERIES
    assert all(set(entry) == {"sql"} | set(MODES) for entry in golden["queries"])


@pytest.mark.parametrize("mode", sorted(MODES))
def test_outputs_match_golden(fixture_model, golden, mode):
    for entry in golden["queries"]:
        got = fixture_model.generate(entry["sql"], **MODES[mode])
        assert got == entry[mode], f"{mode} on {entry['sql']!r}: {got} vs {entry[mode]}"


def test_greedy_equals_beam_one_on_the_golden(golden):
    for entry in golden["queries"]:
        assert entry["greedy"] == entry["beam1"], entry["sql"]


def record(path: Path, commit: str) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    model = restore_model(load_checkpoint(CHECKPOINT))
    sqls = [r["sql"] for r in workloads.heldout_records(GOLDEN_SEED, GOLDEN_QUERIES)]
    queries = [{"sql": sql, **outputs(model, sql)} for sql in sqls]
    lines = ",\n".join(json.dumps(query) for query in queries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"recorded_at": "{commit}", "queries": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    # Usage: python tests/test_generation_golden.py OUT.json COMMIT
    record(Path(sys.argv[1]), sys.argv[2])
