"""Golden-fixture regression tests for persisted checkpoint manifests.

``tests/fixtures/*_v1.manifest`` are epoch manifests serialised by the
original npz codec (n=10 Erdős–Rényi churn workload, 3 epochs; seeds
recorded below); ``*_v2.manifest`` are the same checkpoints migrated
through the arena codec (``load_sketch`` of each v1 payload,
re-``dump_sketch``).  Today's code must keep *loading* both and keep
giving the *same answers* — the compatibility promise for sketches
persisted by a long-running service.  A codec change that cannot read
old bytes, or reads them into different cell arrays, fails here
instead of silently corrupting stored checkpoints.

If the format ever changes intentionally, add a new fixture version
(``*_v3.manifest``) and a migration path — do not regenerate these.
"""

from __future__ import annotations

import functools
import pathlib

import pytest

from repro.api import ConnectivityQuery, GraphSketchEngine, MinCutQuery
from repro.distributed import forest_sketch, mincut_sketch
from repro.sketch import dump_sketch, peek_sketch_meta
from repro.temporal import EpochTimeline, materialise_window

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Workload the fixtures were sealed from (for regeneration reference).
FIXTURE_N = 10
FIXTURE_TOKENS = 62
FOREST_SEED = 424242
MINCUT_SEED = 515151


def _answer(engine: GraphSketchEngine, query) -> dict:
    """The wire form of an engine answer, minus its timing telemetry."""
    payload = engine.query(query).to_dict()
    del payload["telemetry"]
    return payload


@pytest.fixture(scope="module")
def forest_timeline() -> EpochTimeline:
    data = (FIXTURES / "forest_epochs_v1.manifest").read_bytes()
    return EpochTimeline.from_bytes(data)


@pytest.fixture(scope="module")
def mincut_timeline() -> EpochTimeline:
    data = (FIXTURES / "mincut_epochs_v1.manifest").read_bytes()
    return EpochTimeline.from_bytes(data)


class TestForestFixture:
    def test_loads_with_expected_shape(self, forest_timeline):
        assert forest_timeline.n == FIXTURE_N
        assert forest_timeline.epochs == 3
        assert forest_timeline.boundaries[-1] == FIXTURE_TOKENS
        assert forest_timeline.sketch_kind == "sketch:spanning_forest"
        meta = peek_sketch_meta(forest_timeline.checkpoint(1).payload)
        assert meta["seed"] == FOREST_SEED
        assert meta["epoch"] == {
            "epoch": 1, "tokens": 20, "cumulative_tokens": 20,
        }

    def test_connectivity_answers_unchanged(self, forest_timeline):
        engine = GraphSketchEngine.restore(forest_timeline.to_bytes())
        for t in (1, 2, 3):
            answer = engine.query(ConnectivityQuery(window=(0, t)))
            assert answer.components == 1, f"prefix [0,{t}) changed"
            assert answer.forest_edges == 9
        window = engine.query(ConnectivityQuery(window=(1, 3)))
        assert window.kind == "spanning_forest"
        assert window.components == 7
        assert window.forest_edges == 3
        assert engine.query(
            ConnectivityQuery(u=0, v=1, window=(0, 3))
        ).same_component

    def test_checkpoints_stay_subtractable_and_mergeable(self, forest_timeline):
        """Persisted checkpoints keep behaving like live sketches."""
        window = materialise_window(forest_timeline, 1, 3)
        window.merge(materialise_window(forest_timeline, 0, 1))
        assert dump_sketch(window) == dump_sketch(
            materialise_window(forest_timeline, 0, 3)
        )

    def test_fresh_twin_is_byte_compatible(self, forest_timeline):
        """An empty identically-seeded sketch still merges with fixtures."""
        from repro.sketch import load_sketch

        twin = functools.partial(forest_sketch, FIXTURE_N, FOREST_SEED)()
        restored = load_sketch(
            forest_timeline.checkpoint(3).payload, like=twin
        )
        twin.merge(restored)  # no SketchCompatibilityError
        assert dump_sketch(twin) == dump_sketch(restored)


class TestV2Fixtures:
    """The arena-codec fixtures answer identically to their v1 twins."""

    @pytest.mark.parametrize(
        "name, query",
        [("forest_epochs", ConnectivityQuery), ("mincut_epochs", MinCutQuery)],
        ids=["forest_epochs", "mincut_epochs"],
    )
    def test_v2_fixture_answers_match_v1(self, name, query):
        v1 = EpochTimeline.from_bytes(
            (FIXTURES / f"{name}_v1.manifest").read_bytes()
        )
        v2 = EpochTimeline.from_bytes(
            (FIXTURES / f"{name}_v2.manifest").read_bytes()
        )
        assert v2.n == v1.n
        assert v2.boundaries == v1.boundaries
        e1 = GraphSketchEngine.restore(v1.to_bytes())
        e2 = GraphSketchEngine.restore(v2.to_bytes())
        for t in range(1, v1.epochs + 1):
            window = query(window=(0, t))
            assert _answer(e2, window) == _answer(e1, window)
        # Cross-version algebra: a v1 checkpoint merges into a sketch
        # loaded from the v2 fixture (same parameters and seed).
        mixed = materialise_window(v2, 0, 1)
        mixed.merge(materialise_window(v1, 0, 1))
        assert dump_sketch(mixed) != dump_sketch(materialise_window(v2, 0, 1))

    @pytest.mark.parametrize("name", ["forest_epochs", "mincut_epochs"])
    def test_v1_payload_redumps_to_v2_fixture_state(self, name):
        v1 = EpochTimeline.from_bytes(
            (FIXTURES / f"{name}_v1.manifest").read_bytes()
        )
        v2 = EpochTimeline.from_bytes(
            (FIXTURES / f"{name}_v2.manifest").read_bytes()
        )
        from repro.sketch import load_sketch

        for chk_v1, chk_v2 in zip(v1.checkpoints, v2.checkpoints):
            migrated = load_sketch(chk_v1.payload)
            restored = load_sketch(chk_v2.payload, like=migrated)
            assert dump_sketch(migrated) == dump_sketch(restored)

    @pytest.mark.parametrize("name", ["forest_epochs", "mincut_epochs"])
    def test_v2_checkpoints_redump_to_their_committed_bytes(self, name):
        """Load then dump gives back every committed checkpoint exactly.

        Pins the whole blob — the header's parameter keys and their
        order, the seed, the epoch metadata — not just the cell state.
        """
        from repro.sketch import load_epoch_manifest, load_sketch

        _, payloads = load_epoch_manifest(
            (FIXTURES / f"{name}_v2.manifest").read_bytes()
        )
        assert len(payloads) == 3
        for payload in payloads:
            epoch_meta = peek_sketch_meta(payload)["epoch"]
            redumped = dump_sketch(load_sketch(payload), epoch_meta=epoch_meta)
            assert redumped == payload


class TestMinCutFixture:
    def test_loads_with_expected_shape(self, mincut_timeline):
        assert mincut_timeline.n == FIXTURE_N
        assert mincut_timeline.epochs == 3
        assert mincut_timeline.sketch_kind == "sketch:mincut"
        assert peek_sketch_meta(
            mincut_timeline.checkpoint(2).payload
        )["seed"] == MINCUT_SEED

    def test_mincut_answers_unchanged(self, mincut_timeline):
        engine = GraphSketchEngine.restore(mincut_timeline.to_bytes())
        expected = {1: 1.0, 2: 2.0, 3: 3.0}
        for t, value in expected.items():
            answer = engine.query(MinCutQuery(window=(0, t)))
            assert answer.value == value, f"prefix [0,{t}) changed"
            assert answer.stop_level == 0

    def test_like_verification_against_wrong_seed(self, mincut_timeline):
        from repro.errors import SketchCompatibilityError
        from repro.sketch import load_sketch

        stranger = functools.partial(
            mincut_sketch, FIXTURE_N, MINCUT_SEED + 1, c_k=0.3
        )()
        with pytest.raises(SketchCompatibilityError):
            load_sketch(mincut_timeline.checkpoint(1).payload, like=stranger)
