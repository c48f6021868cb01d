"""Scene state, transitions, and the JSON wire format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_swap_scene, take_proposals
from oracles import contains, footprint, goal_footprint, object_validate_scene, overlaps
from pushplan.bench import generate_scene
from pushplan.geometry import HalfDims, Rect, Side, Vec2
from pushplan.scene import (
    DEFAULT_TOLERANCE,
    InfeasibleActionError,
    InvalidSceneError,
    ObjectSpec,
    PickPlace,
    PushPlace,
    Scene,
    apply_action,
    blockers_of,
    is_at_goal,
    satisfied_count,
    validate_action,
)
from pushplan.io import (
    SceneFormatError,
    action_from_dict,
    action_to_dict,
    scene_from_dict,
    scene_from_json,
    scene_to_dict,
    scene_to_json,
)

WS = Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0))


def square(half: float = 0.05) -> ObjectSpec:
    return ObjectSpec(HalfDims(half, half))


class TestValidation:
    def test_pose_count_mismatch(self):
        with pytest.raises(InvalidSceneError, match="must match object count"):
            Scene(WS, (square(),), (Vec2(0.5, 0.5), Vec2(0.2, 0.2)), (Vec2(0.5, 0.5),))

    def test_tolerance_positive(self):
        with pytest.raises(InvalidSceneError, match="tolerance"):
            Scene(WS, (square(),), (Vec2(0.5, 0.5),), (Vec2(0.5, 0.5),), 0.0)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_is_finite_and_positive(self, tolerance):
        # An infinite tolerance built a scene whose every object read as at its goal, so ``plan``
        # returned an empty plan; the scene document reader already rejected it.
        fields = (WS, (square(),), (Vec2(0.5, 0.5),), (Vec2(0.2, 0.2),), tolerance)
        assert assert_same_validation(fields) == f"tolerance must be finite and positive, got {tolerance}"

    def test_footprint_outside_workspace(self):
        with pytest.raises(InvalidSceneError, match="current footprint of object 0"):
            Scene(WS, (square(),), (Vec2(0.02, 0.5),), (Vec2(0.5, 0.5),))
        with pytest.raises(InvalidSceneError, match="goal footprint of object 0"):
            Scene(WS, (square(),), (Vec2(0.5, 0.5),), (Vec2(1.02, 0.5),))

    def test_overlapping_footprints_rejected_per_arrangement(self):
        with pytest.raises(InvalidSceneError, match="current footprints of objects 0 and 1"):
            Scene(WS, (square(), square()),
                  (Vec2(0.5, 0.5), Vec2(0.55, 0.5)),
                  (Vec2(0.2, 0.2), Vec2(0.8, 0.8)))
        with pytest.raises(InvalidSceneError, match="goal footprints of objects 0 and 1"):
            Scene(WS, (square(), square()),
                  (Vec2(0.2, 0.2), Vec2(0.8, 0.8)),
                  (Vec2(0.5, 0.5), Vec2(0.55, 0.5)))

    def test_touching_footprints_are_legal(self):
        s = Scene(WS, (square(), square()),
                  (Vec2(0.45, 0.5), Vec2(0.55, 0.5)),
                  (Vec2(0.2, 0.2), Vec2(0.8, 0.8)))
        assert s.n == 2

    def test_goal_may_overlap_other_objects_current(self):
        # the whole problem: goals blocked by other objects' current poses
        s = make_swap_scene()
        assert blockers_of(s, 0) == (1,)
        assert blockers_of(s, 1) == (0,)

    def test_empty_scene_is_valid_and_solved(self):
        s = Scene(WS, (), (), ())
        assert s.n == 0
        assert satisfied_count(s) == 0


def validation_outcome(validate, fields):
    """The InvalidSceneError text ``validate(*fields)`` raises, or None."""
    try:
        validate(*fields)
    except InvalidSceneError as e:
        return str(e)
    return None


def assert_same_validation(fields):
    """``Scene`` and the object-based checks agree on ``fields``; returns the outcome."""
    got = validation_outcome(Scene, fields)
    assert got == validation_outcome(object_validate_scene, fields), fields
    return got


def perturb(fields, rng: random.Random):
    """``fields`` with one object of one arrangement moved to a contact, one
    ulp past it, or onto another object, or the workspace shrunk one ulp."""
    ws, objects, current, goal, tol = fields
    n = len(objects)
    kind = rng.randrange(4)
    if kind == 3:
        # The workspace's top or right edge one ulp inside the extreme footprint.
        hx = max(p.x + o.half.a for p, o in zip(current + goal, objects + objects))
        hy = max(p.y + o.half.b for p, o in zip(current + goal, objects + objects))
        if rng.random() < 0.5:
            hi = Vec2(math.nextafter(hx, -math.inf), ws.hi.y)
        else:
            hi = Vec2(ws.hi.x, math.nextafter(hy, -math.inf))
        return (Rect(ws.lo, hi), objects, current, goal, tol)
    arrangement = rng.choice(("current", "goal"))
    poses = list(current if arrangement == "current" else goal)
    j = rng.randrange(n)
    hj = objects[j].half
    if kind == 0:
        # Touching the workspace's left or bottom edge.
        x, y = poses[j].x, poses[j].y
        if rng.random() < 0.5:
            x = ws.lo.x + hj.a
        else:
            y = ws.lo.y + hj.b
    else:
        # Touching object i on its right (kind 1), or centered on it (kind 2).
        i = rng.choice([k for k in range(n) if k != j])
        pi, hi_ = poses[i], objects[i].half
        x, y = (pi.x + hi_.a + hj.a, pi.y) if kind == 1 else (pi.x, pi.y)
    if rng.random() < 0.5:
        # One ulp in a random direction.
        x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
    poses[j] = Vec2(x, y)
    if arrangement == "current":
        return (ws, objects, tuple(poses), goal, tol)
    return (ws, objects, current, tuple(poses), tol)


def eighths(*xs_ys):
    """Squares of half extent 1/8 m at the given centers (x, y).  At dyadic
    centers every footprint edge is exact."""
    objects = tuple(ObjectSpec(HalfDims(0.125, 0.125)) for _ in range(len(xs_ys)))
    return objects, tuple(Vec2(x, y) for x, y in xs_ys)


class TestValidationMatchesObjectChecks:
    """Construction accepts, rejects and names the violation as the ``Rect``
    checks it replaced: current before goal, workspace before overlap,
    lowest (i, j) first."""

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_perturbed_generated_scenes(self, n):
        rng = random.Random(n)
        outcomes = set()
        for seed in range(40):
            s = generate_scene(n, seed)
            fields = (s.workspace, s.objects, s.current, s.goal, s.tolerance)
            assert assert_same_validation(fields) is None
            for _ in range(12):
                for _ in range(rng.randint(1, 3)):
                    fields = perturb(fields, rng)
                got = assert_same_validation(fields)
                outcomes.add(None if got is None else got.split(" of")[0])
                fields = (s.workspace, s.objects, s.current, s.goal, s.tolerance)
        assert outcomes == {None, "current footprint", "current footprints", "goal footprint", "goal footprints"}

    @pytest.mark.parametrize(
        "centers, want",
        [
            # Exact contact, between objects and with the workspace edge, is legal.
            ([(0.25, 0.5), (0.5, 0.5)], None),
            ([(0.125, 0.125), (0.875, 0.875)], None),
            # A footprint edge one ulp past either contact is not.
            ([(0.25, 0.5), (math.nextafter(0.5, 0.0), 0.5)], "current footprints of objects 0 and 1 overlap"),
            ([(math.nextafter(0.125, 0.0), 0.5)], "current footprint of object 0 leaves the workspace"),
            ([(0.5, 0.875 + 2 ** -52)], "current footprint of object 0 leaves the workspace"),
            # Workspace before overlap, and the lowest (i, j) first: (0, 3) before (1, 2).
            ([(0.5, 0.5), (0.5, 0.5), (1.0, 0.25)], "current footprint of object 2 leaves the workspace"),
            ([(0.25, 0.25), (0.75, 0.75), (0.75, 0.75), (0.25, 0.25)],
             "current footprints of objects 0 and 3 overlap"),
        ],
    )
    def test_pinned_cases(self, centers, want):
        objects, poses = eighths(*centers)
        fields = (WS, objects, poses, poses, DEFAULT_TOLERANCE)
        assert assert_same_validation(fields) == want
        if want is not None:
            # The same violation in the goal arrangement alone is named for the goal.
            _, spread = eighths(*[(0.125 + 0.25 * (k % 4), 0.125 + 0.25 * (k // 4)) for k in range(len(centers))])
            assert assert_same_validation((WS, objects, spread, poses, DEFAULT_TOLERANCE)) == want.replace("current", "goal")

    def test_current_is_checked_before_goal(self):
        # The goal arrangement leaves the table; the current one overlaps.
        objects, current = eighths((0.25, 0.25), (0.5, 0.5), (0.5, 0.5))
        _, goal = eighths((1.0, 0.5), (0.25, 0.75), (0.75, 0.25))
        got = assert_same_validation((WS, objects, current, goal, DEFAULT_TOLERANCE))
        assert got == "current footprints of objects 1 and 2 overlap"


class TestPredicates:
    def test_at_goal_boundary_inclusive(self):
        # distances exactly representable in binary so the boundary is exact
        base = Scene(WS, (square(),), (Vec2(0.75, 0.5),), (Vec2(0.5, 0.5),), 0.25)
        assert is_at_goal(base, 0)
        nudged = Scene(WS, (square(),), (Vec2(0.8125, 0.5),), (Vec2(0.5, 0.5),), 0.25)
        assert not is_at_goal(nudged, 0)

    def test_satisfied_count_and_unsatisfied(self):
        s = make_swap_scene()
        assert satisfied_count(s) == 0
        assert s.unsatisfied == (0, 1)
        done = Scene(s.workspace, s.objects, s.goal, s.goal, s.tolerance)
        assert satisfied_count(done) == 2
        assert done.unsatisfied == ()

    def test_blockers_match_brute_force_oracle(self):
        for k in range(60):
            s = generate_scene(3 + k % 6, 9000 + k)
            for i in range(s.n):
                expected = tuple(
                    j for j in range(s.n)
                    if j != i and overlaps(goal_footprint(s, i), footprint(s, j))
                )
                assert blockers_of(s, i) == expected

    def test_placement_free_oracle(self):
        s = make_swap_scene()
        free = PickPlace(0, Vec2(0.5, 0.2))
        assert validate_action(s, free) is free
        with pytest.raises(InfeasibleActionError, match="object 0 overlaps object 1$"):
            validate_action(s, PickPlace(0, Vec2(0.6, 0.45)))
        with pytest.raises(InfeasibleActionError, match="object 0 leaves the workspace$"):
            validate_action(s, PickPlace(0, Vec2(0.03, 0.5)))
        # its own current pose never blocks it
        own = PickPlace(0, Vec2(0.36, 0.5))
        assert validate_action(s, own) is own


class TestPickPlace:
    def test_teleports_object(self):
        s = make_swap_scene()
        nxt = apply_action(s, PickPlace(0, Vec2(0.2, 0.8)))
        assert nxt.current[0] == Vec2(0.2, 0.8)
        assert nxt.current[1] == s.current[1]
        assert s.current[0] == Vec2(0.35, 0.5)  # original untouched

    def test_rejects_overlapping_destination_naming_object(self):
        s = make_swap_scene()
        with pytest.raises(InfeasibleActionError, match="object 1"):
            apply_action(s, PickPlace(0, Vec2(0.6, 0.5)))

    def test_rejects_out_of_workspace_destination(self):
        s = make_swap_scene()
        with pytest.raises(InfeasibleActionError, match="workspace"):
            apply_action(s, PickPlace(0, Vec2(0.01, 0.5)))

    def test_rejects_unknown_object(self):
        s = make_swap_scene()
        with pytest.raises(InfeasibleActionError):
            apply_action(s, PickPlace(7, Vec2(0.2, 0.8)))

    def test_validate_action_returns_the_placement(self):
        s = make_swap_scene()
        action = PickPlace(0, Vec2(0.2, 0.8))
        assert validate_action(s, action) is action


class TestPushPlaceTransition:
    def test_swap_fixture_hand_values(self):
        s = make_swap_scene()
        proposal = validate_action(s, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5)))
        assert (proposal.target, proposal.side) == (0, Side.LEFT)
        assert proposal.pre_push.x == pytest.approx(0.755, abs=1e-12) and proposal.pre_push.y == 0.5
        assert proposal.blocker_moves == ((1, pytest.approx(0.105, abs=1e-12)),)
        nxt = apply_action(s, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5)))
        assert nxt.current[0] == Vec2(0.65, 0.5)
        assert nxt.current[1].x == pytest.approx(0.545, abs=1e-12)
        assert nxt.current[1].y == 0.5
        assert is_at_goal(nxt, 0)

    def test_rejects_wrong_pre_push_pose(self):
        s = make_swap_scene()
        with pytest.raises(InfeasibleActionError, match="pre-push"):
            apply_action(s, PushPlace(0, Side.LEFT, Vec2(0.80, 0.5)))

    def test_rejects_push_with_no_blockers(self):
        s = make_swap_scene()
        cleared = apply_action(s, PickPlace(1, Vec2(0.8, 0.8)))
        with pytest.raises(InfeasibleActionError):
            apply_action(cleared, PushPlace(0, Side.LEFT, Vec2(0.755, 0.5)))

    def test_satisfied_count_never_exceeds_n(self):
        for scene, prop in take_proposals("scene-bounds", 120):
            nxt = apply_action(scene, prop.as_action())
            assert 0 <= satisfied_count(nxt) <= nxt.n
            assert is_at_goal(nxt, prop.target)

    def test_transitions_preserve_scene_invariants(self):
        # Scene.__post_init__ re-validates, so constructing the result is the check;
        # assert the geometric facts explicitly anyway.
        cases = 0
        for scene, prop in take_proposals("scene-valid", 400):
            nxt = apply_action(scene, prop.as_action())
            for i in range(nxt.n):
                assert contains(nxt.workspace, footprint(nxt, i))
                for j in range(i + 1, nxt.n):
                    assert not overlaps(footprint(nxt, i), footprint(nxt, j))
            cases += 1
        assert cases == 400

    def test_apply_action_deterministic(self):
        for scene, prop in take_proposals("scene-det", 50):
            a = apply_action(scene, prop.as_action())
            b = apply_action(scene, prop.as_action())
            assert a.current == b.current  # bit-for-bit


class TestJsonFormat:
    def test_round_trip_preserves_everything(self):
        s = make_swap_scene()
        doc = scene_to_dict(s)
        back = scene_from_dict(doc)
        assert back == s
        assert scene_from_json(scene_to_json(s)) == s

    def test_field_order_is_stable(self):
        keys = list(scene_to_dict(make_swap_scene()).keys())
        assert keys == ["workspace", "objects", "start", "goal", "epsilon"]

    def test_epsilon_defaults_when_absent(self):
        doc = scene_to_dict(make_swap_scene())
        del doc["epsilon"]
        assert scene_from_dict(doc).tolerance == 0.005

    def test_color_round_trips(self):
        s = Scene(WS, (ObjectSpec(HalfDims(0.05, 0.05), "#ff0000"),),
                  (Vec2(0.5, 0.5),), (Vec2(0.2, 0.2),))
        back = scene_from_dict(scene_to_dict(s))
        assert back.objects[0].color == "#ff0000"

    def test_missing_field_diagnostic(self):
        doc = scene_to_dict(make_swap_scene())
        del doc["goal"]
        with pytest.raises(SceneFormatError, match="'goal'"):
            scene_from_dict(doc)

    def test_bad_workspace_diagnostic(self):
        doc = scene_to_dict(make_swap_scene())
        doc["workspace"] = [0, 0, 1]
        with pytest.raises(SceneFormatError, match="'workspace'"):
            scene_from_dict(doc)

    def test_bad_object_entry_diagnostic(self):
        doc = scene_to_dict(make_swap_scene())
        del doc["objects"][1]["b"]
        with pytest.raises(SceneFormatError, match=r"objects\[1\]"):
            scene_from_dict(doc)

    def test_bad_pose_diagnostic(self):
        doc = scene_to_dict(make_swap_scene())
        doc["start"][0] = [0.5]
        with pytest.raises(SceneFormatError, match=r"start\[0\]"):
            scene_from_dict(doc)

    def test_objects_not_a_list(self):
        doc = scene_to_dict(make_swap_scene())
        doc["objects"] = 5
        with pytest.raises(SceneFormatError, match="'objects' must be a list"):
            scene_from_dict(doc)

    def test_non_numeric_pose(self):
        doc = scene_to_dict(make_swap_scene())
        doc["start"][1] = ["x", 0.2]
        with pytest.raises(SceneFormatError, match=r"'start\[1\]\[0\]' must be a number"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("epsilon", ["inf", float("inf"), float("nan"), "-Infinity"])
    def test_non_finite_epsilon_rejected(self, epsilon):
        doc = scene_to_dict(make_swap_scene())
        doc["epsilon"] = epsilon
        with pytest.raises(SceneFormatError, match="'epsilon' must be finite"):
            scene_from_dict(doc)

    def test_non_numeric_epsilon_rejected(self):
        doc = scene_to_dict(make_swap_scene())
        doc["epsilon"] = None
        with pytest.raises(SceneFormatError, match="'epsilon' must be a number"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("k, value", [(2, float("inf")), (0, float("nan")), (3, "inf")])
    def test_non_finite_workspace_rejected(self, k, value):
        doc = scene_to_dict(make_swap_scene())
        doc["workspace"][k] = value
        with pytest.raises(SceneFormatError, match=rf"'workspace\[{k}\]' must be finite"):
            scene_from_dict(doc)

    def test_non_object_documents_rejected(self):
        with pytest.raises(SceneFormatError, match="scene document must be an object"):
            scene_from_dict([1, 2])
        doc = scene_to_dict(make_swap_scene())
        doc["objects"][0] = 0.05
        with pytest.raises(SceneFormatError, match=r"objects\[0\]"):
            scene_from_dict(doc)
        doc = scene_to_dict(make_swap_scene())
        doc["objects"][0]["color"] = 7
        with pytest.raises(SceneFormatError, match=r"objects\[0\]\.color"):
            scene_from_dict(doc)
        with pytest.raises(SceneFormatError, match="action document must be an object"):
            action_from_dict(5)

    def test_invalid_scene_surfaces_as_format_error(self):
        doc = scene_to_dict(make_swap_scene())
        doc["start"][0] = [0.64, 0.5]  # overlaps object 1
        with pytest.raises(SceneFormatError, match="overlap"):
            scene_from_dict(doc)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_random_scene_round_trip(self, n, seed):
        s = generate_scene(n, seed)
        assert scene_from_json(scene_to_json(s)) == s


class TestActionJson:
    def test_pick_place_round_trip(self):
        a = PickPlace(3, Vec2(0.25, 0.75))
        doc = action_to_dict(a)
        assert doc["type"] == "pick_place"
        assert action_from_dict(doc) == a

    def test_push_place_round_trip(self):
        a = PushPlace(1, Side.DOWN, Vec2(0.4, 0.9))
        doc = action_to_dict(a)
        assert doc["type"] == "push_place"
        assert action_from_dict(doc) == a

    def test_unknown_type_diagnostic(self):
        with pytest.raises(SceneFormatError, match="type"):
            action_from_dict({"type": "teleport", "object": 0})
