"""A generated corpus: its bytes, pinned, and the objects its runs share.

The generator and the trace writer build every benchmark corpus, so their
bytes are pinned by digest; the digests hold under any string hash seed.
Generated runs share one state object per distinct snapshot, as the runs of
one trace-file load do, and a write encodes each distinct state object once.
"""

import copy
import dataclasses
import hashlib
import json

import pytest

from burstmine import synthetic
from burstmine.collect import Run, dumps_runs, loads_runs
from burstmine.states import ConcreteState
from burstmine.synthetic import generate_editor_runs

from perfbench.inputs import editor_corpus


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _states(runs) -> list[ConcreteState]:
    return [s for run in runs for seg in run.segments
            for s in (seg.pre_state, seg.post_state)]


# --- bytes ---------------------------------------------------------------------

@pytest.mark.parametrize("n_runs, seed, digest", [
    (120, 0, "73f2822cf1088788bc32f481cb0d2c17154b8a7763c4e367c5ce738de593607e"),
    (120, 9001, "aef482ea0364f05d5ce7709e36347243adc59b426158f09e4dd5edc242bbae2f"),
    (30, 0, "3e72c46dd10ea3a89ffceadd9d12edb511a7c4bca7369b905e98593eab2bf1f8"),
])
def test_benchmark_corpus_bytes_are_pinned(n_runs, seed, digest):
    text, _ = editor_corpus(n_runs, seed)
    assert _sha256(text) == digest


def test_generated_runs_write_pinned_bytes():
    text = dumps_runs(generate_editor_runs(6, master_seed=4))
    assert _sha256(text) == (
        "58cbccafd07c7f9cfe1f8e25a2185e40e5c8b5948f39ff02fe76de7c83fc65e9")


# --- sharing -------------------------------------------------------------------

@pytest.fixture(scope="module")
def runs():
    return generate_editor_runs(20, master_seed=7)


def test_one_state_object_per_distinct_snapshot(runs):
    states = _states(runs)
    texts = {json.dumps(s.to_dict()) for s in states}
    assert len(states) > 5 * len(texts)
    assert len({id(s) for s in states}) == len(texts)


def test_each_distinct_snapshot_is_abstracted_once(monkeypatch):
    abstract_state, seen = synthetic.abstract_state, []

    def counting(afs, state):
        seen.append(state)
        return abstract_state(afs, state)

    monkeypatch.setattr(synthetic, "abstract_state", counting)
    states = _states(generate_editor_runs(20, master_seed=7))
    assert len(seen) == len({id(s) for s in seen})
    assert {id(s) for s in seen} == {id(s) for s in states}


def test_a_write_encodes_each_distinct_state_object_once(runs, monkeypatch):
    loaded = loads_runs(dumps_runs(runs))
    to_dict, written = ConcreteState.to_dict, []

    def counting(self):
        written.append(self)
        return to_dict(self)

    monkeypatch.setattr(ConcreteState, "to_dict", counting)
    for corpus in (runs, loaded):
        written.clear()
        dumps_runs(corpus)
        assert len(written) == len({id(s) for s in _states(corpus)})
        assert 5 * len(written) < len(_states(corpus))


def test_shared_states_write_the_bytes_of_copied_ones(runs):
    copies = [Run(run.run_id, tuple(
        dataclasses.replace(seg, pre_state=copy.deepcopy(seg.pre_state),
                            post_state=copy.deepcopy(seg.post_state))
        for seg in run.segments)) for run in runs]
    assert len({id(s) for s in _states(copies)}) == len(_states(copies))
    assert dumps_runs(copies) == dumps_runs(runs)
