"""Simulator tests: chain propagation, noise and its edge clamp, the
zero-noise fidelity guarantee against scene.apply_action, and refusal of
every action validate_action refuses."""

import math
import random
import sys
from dataclasses import replace

import pytest

from pushplan import (
    InfeasibleActionError,
    NoiseConfig,
    ObjectSpec,
    PickPlace,
    PushPlace,
    Scene,
    Side,
    SimEventKind,
    Vec2,
    apply_action,
    blockers_of,
    push_forward,
    rect_from_center,
    select_push,
    simulate,
    validate_action,
)
from pushplan.geometry import HalfDims, Rect, axis_coord, perp_coord
from pushplan.scene import DEFAULT_CLEARANCE
from pushplan.simulator import EDGE_REST_INSET

from conftest import take_proposals
from oracles import axis_extent, footprint, overlaps


def _poses_close(a, b, tol=1e-9):
    return all(
        abs(pa.x - pb.x) <= tol and abs(pa.y - pb.y) <= tol for pa, pb in zip(a, b)
    )


def _row_scene(xs, goal0, half=0.05):
    """Objects of equal size at y=0.5, target 0 with the given goal."""
    n = len(xs)
    objs = tuple(ObjectSpec(HalfDims(half, half)) for _ in range(n))
    current = tuple(Vec2(x, 0.5) for x in xs)
    # park goals along the top edge so only the target's goal matters
    goals = [Vec2(0.1 + 0.15 * i, 0.85) for i in range(n)]
    goals[0] = goal0
    return Scene(
        workspace=Rect(Vec2(0, 0), Vec2(1, 1)),
        objects=objs,
        current=current,
        goal=tuple(goals),
    )


class TestPushForward:
    def test_single_blocker_rides_front(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        poses, events = push_forward(scene, 0, Side.RIGHT, Vec2(0.2, 0.5), Vec2(0.4, 0.5))
        # front goes 0.25 -> 0.45; blocker trailing face was at 0.45, so it
        # is just grazed and carried 0.0? No: front passes strictly, contact
        # at exactly touching does not move it.
        assert poses[1] == Vec2(0.5, 0.5)
        assert events == []

        poses, events = push_forward(scene, 0, Side.RIGHT, Vec2(0.2, 0.5), Vec2(0.5, 0.5))
        # front ends at 0.55, blocker trailing face 0.45 -> carried 0.10
        assert poses[0] == Vec2(0.5, 0.5)
        assert abs(poses[1].x - 0.6) < 1e-12 and poses[1].y == 0.5
        assert len(events) == 1
        assert events[0].kind is SimEventKind.PUSHED
        assert events[0].object == 1
        assert "0.100000" in events[0].detail

    def test_two_in_line_chain(self):
        scene = _row_scene([0.2, 0.35, 0.5], Vec2(0.45, 0.5))
        poses, events = push_forward(scene, 0, Side.RIGHT, Vec2(0.2, 0.5), Vec2(0.45, 0.5))
        # target front 0.25 -> 0.50: A (trailing 0.30) carried 0.20 to 0.55,
        # A's front 0.40 -> 0.60 passes B's trailing 0.45, carrying B 0.15.
        assert abs(poses[1].x - 0.55) < 1e-12
        assert abs(poses[2].x - 0.65) < 1e-12
        kinds = [(e.kind, e.object) for e in events]
        assert kinds == [
            (SimEventKind.PUSHED, 1),
            (SimEventKind.SECONDARY_CONTACT, 2),
        ]
        assert "0.200000" in events[0].detail
        assert "by the target" in events[0].detail
        assert "0.150000" in events[1].detail
        assert "by object 1" in events[1].detail

    def test_chained_contact_emits_secondary(self, chained_push_scene):
        # The model refuses this push (object 1's corridor holds object 4),
        # and the chain shows why: object 1 carries object 4 along.
        scene = chained_push_scene
        pre_push = Vec2(0.5, 0.395)
        sweep_end = scene.goal[0] + Side.UP.unit * DEFAULT_CLEARANCE
        with pytest.raises(InfeasibleActionError, match="corridor of blocker 1"):
            simulate(scene, PushPlace(0, Side.UP, pre_push))
        poses, events = push_forward(scene, 0, Side.UP, pre_push, sweep_end)
        assert poses[0] == sweep_end
        assert abs(poses[1].y - 0.605) < 1e-12
        assert abs(poses[4].y - 0.705) < 1e-12
        # side neighbours are out of the swept band and stay put
        assert poses[2] == scene.current[2]
        assert poses[3] == scene.current[3]
        kinds = [(e.kind, e.object) for e in events]
        assert kinds == [(SimEventKind.PUSHED, 1), (SimEventKind.SECONDARY_CONTACT, 4)]
        assert "by object 1" in events[1].detail

    def test_contact_kind_is_the_chain_position_not_blocker_status(self):
        # Objects 1 and 2 both block the target's goal, but only object 1 is
        # carried by the target; object 2 is carried by object 1.
        scene = _row_scene([0.15, 0.43, 0.54], Vec2(0.5, 0.5))
        assert blockers_of(scene, 0) == (1, 2)
        sweep_end = scene.goal[0] + Side.RIGHT.unit * DEFAULT_CLEARANCE
        _, events = push_forward(scene, 0, Side.RIGHT, Vec2(0.27, 0.5), sweep_end)
        assert [(e.kind, e.object) for e in events] == [
            (SimEventKind.PUSHED, 1),
            (SimEventKind.SECONDARY_CONTACT, 2),
        ]
        assert events[1].detail == "contact chain: pushed 0.165000 m by object 1"

    def test_lateral_miss_is_untouched(self):
        # blocker offset sideways past the swept band never moves
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        scene = Scene(
            workspace=scene.workspace,
            objects=scene.objects,
            current=(scene.current[0], Vec2(0.5, 0.65)),
            goal=scene.goal,
        )
        poses, events = push_forward(scene, 0, Side.RIGHT, Vec2(0.2, 0.5), Vec2(0.6, 0.5))
        assert poses[1] == Vec2(0.5, 0.65)
        assert events == []

    def test_rejects_lateral_endpoints(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        with pytest.raises(ValueError, match="travel axis"):
            push_forward(scene, 0, Side.RIGHT, Vec2(0.2, 0.5), Vec2(0.4, 0.6))

    def test_rejects_negative_travel(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        with pytest.raises(ValueError, match="non-negative"):
            push_forward(scene, 0, Side.RIGHT, Vec2(0.4, 0.5), Vec2(0.2, 0.5))


class TestZeroNoiseFidelity:
    def test_matches_apply_action_on_admissible_pushes(self):
        # Dual route: the kinematic model in apply_action and the swept-chain
        # simulator must land every object on the same pose.
        checked = 0
        for scene, prop in take_proposals("sim-fidelity", 300):
            action = prop.as_action()
            expected = apply_action(scene, action)
            got, events = simulate(scene, action)
            assert _poses_close(got.current, expected.current), (
                f"simulate disagrees with apply_action for target "
                f"{prop.target} side {prop.side}"
            )
            pushed = {e.object for e in events if e.kind is SimEventKind.PUSHED}
            assert pushed == set(blockers_of(scene, prop.target))
            assert all(e.kind is SimEventKind.PUSHED for e in events)
            checked += 1
        assert checked == 300

    def test_pick_place_matches_apply_action(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        action = PickPlace(1, Vec2(0.8, 0.2))
        got, events = simulate(scene, action)
        assert got.current == apply_action(scene, action).current
        assert events == []

    def test_input_scene_is_untouched(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        before = scene.current
        simulate(scene, PickPlace(1, Vec2(0.8, 0.2)))
        assert scene.current == before


class TestMotionStructure:
    def test_no_object_moves_against_the_push(self):
        # the target is picked up and swept forward from its pre-push pose;
        # everything else may only be carried forward, never backward
        for scene, prop in take_proposals("sim-monotone", 150):
            action = prop.as_action()
            out, _ = simulate(scene, action)
            for i in range(scene.n):
                if i == prop.target:
                    before = axis_coord(action.pre_push, prop.side)
                else:
                    before = axis_coord(scene.current[i], prop.side)
                after = axis_coord(out.current[i], prop.side)
                assert after >= before - 1e-12

    def test_zero_noise_preserves_lateral_positions(self):
        for scene, prop in take_proposals("sim-lateral", 150):
            out, _ = simulate(scene, prop.as_action())
            for i in range(scene.n):
                if i == prop.target:
                    continue
                assert perp_coord(out.current[i], prop.side) == perp_coord(
                    scene.current[i], prop.side
                )

    def test_laterally_overlapping_pairs_never_swap(self):
        # objects sharing a lateral band cannot pass through each other, so
        # their trailing-face order along the push axis never inverts
        # (objects in disjoint bands may slide past side by side)
        def lat(rect, side):
            if side in (Side.LEFT, Side.RIGHT):
                return rect.lo.y, rect.hi.y
            return rect.lo.x, rect.hi.x

        for scene, prop in take_proposals("sim-order", 150):
            action = prop.as_action()
            out, events = simulate(scene, action)
            ids = [prop.target] + [e.object for e in events]

            def rect_before(i):
                if i == prop.target:
                    return rect_from_center(action.pre_push, scene.objects[i].half)
                return footprint(scene, i)

            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    i, j = ids[a], ids[b]
                    lo_i, hi_i = lat(rect_before(i), prop.side)
                    lo_j, hi_j = lat(rect_before(j), prop.side)
                    if not (lo_i < hi_j and lo_j < hi_i):
                        continue
                    ni = axis_extent(rect_before(i), prop.side)[0]
                    nj = axis_extent(rect_before(j), prop.side)[0]
                    mi = axis_extent(footprint(out, i), prop.side)[0]
                    mj = axis_extent(footprint(out, j), prop.side)[0]
                    if ni < nj:
                        assert mi <= mj + 1e-12
                    elif nj < ni:
                        assert mj <= mi + 1e-12


class TestNoise:
    def test_noise_requires_rng(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        noisy = NoiseConfig(enabled=True)
        with pytest.raises(ValueError, match="rng"):
            simulate(scene, PickPlace(1, Vec2(0.8, 0.2)), noise=noisy)

    def test_noisy_runs_are_seed_deterministic(self):
        noisy = NoiseConfig(enabled=True)
        for scene, prop in take_proposals("sim-noise-det", 40):
            a, ea = simulate(scene, prop.as_action(), noise=noisy, rng=random.Random(7))
            b, eb = simulate(scene, prop.as_action(), noise=noisy, rng=random.Random(7))
            assert a.current == b.current
            assert [(e.kind, e.object, e.detail) for e in ea] == [
                (e.kind, e.object, e.detail) for e in eb
            ]

    def test_noise_actually_perturbs(self):
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        action = select_push(scene, 0).as_action()
        clean, _ = simulate(scene, action)
        noisy, _ = simulate(
            scene, action, noise=NoiseConfig(enabled=True), rng=random.Random(3)
        )
        assert noisy.current != clean.current

    def test_noise_never_creates_overlap_or_escape(self):
        # the settle step halves the drift until the pose is free, so noisy
        # outcomes are always physically consistent scenes
        noisy = NoiseConfig(lateral_sigma=0.01, depth_sigma=0.008, enabled=True)
        runs = 0
        for k, (scene, prop) in enumerate(take_proposals("sim-noise-valid", 100)):
            for r in range(10):
                out, _ = simulate(
                    scene, prop.as_action(), noise=noisy, rng=random.Random(1000 * k + r)
                )
                for i in range(out.n):
                    ri = footprint(out, i)
                    assert ri.lo.x >= 0 and ri.lo.y >= 0
                    assert ri.hi.x <= 1 and ri.hi.y <= 1
                    for j in range(i + 1, out.n):
                        assert not overlaps(ri, footprint(out, j))
                runs += 1
        assert runs == 1000

    def test_pick_place_noise_clamps_to_workspace(self):
        # destination flush against the corner with huge noise still settles
        # inside the table, silently
        ws = Rect(Vec2(0, 0), Vec2(1, 1))
        scene = Scene(
            workspace=ws,
            objects=(ObjectSpec(HalfDims(0.05, 0.05)),),
            current=(Vec2(0.5, 0.5),),
            goal=(Vec2(0.95, 0.95),),
        )
        noisy = NoiseConfig(lateral_sigma=0.2, depth_sigma=0.2, enabled=True)
        for seed in range(40):
            out, events = simulate(
                scene, PickPlace(0, Vec2(0.95, 0.95)), noise=noisy, rng=random.Random(seed)
            )
            r = footprint(out, 0)
            assert r.hi.x <= 1.0 and r.hi.y <= 1.0
            assert r.lo.x >= 0.0 and r.lo.y >= 0.0
            assert events == []

    def test_a_drift_into_a_neighbour_keeps_the_settled_pose(self):
        # The destination is flush against object 1, and every draw is the top of its range, so the
        # drift points into object 1: no fraction of it is free, and object 0 keeps the destination.
        class TopOfRange:
            def uniform(self, lo, hi):
                return hi

        half = HalfDims(0.0625, 0.0625)
        scene = Scene(Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)), (ObjectSpec(half), ObjectSpec(half)),
                      (Vec2(0.25, 0.25), Vec2(0.5, 0.5)), (Vec2(0.75, 0.75), Vec2(0.5, 0.5)))
        action = PickPlace(0, Vec2(0.375, 0.5))
        out, events = simulate(scene, action, noise=NoiseConfig(enabled=True), rng=TopOfRange())
        assert out.current == (Vec2(0.375, 0.5), Vec2(0.5, 0.5))
        assert events == []

    def test_push_noise_at_edge_emits_left_table(self):
        # target set down touching the right wall; large lateral drift along
        # x must clip and be reported
        scene = _row_scene([0.2, 0.93], Vec2(0.95, 0.5))
        # blocker at 0.93 overlaps goal [0.90, 1.00]; push UP instead so the
        # rest pose stays on the table
        scene = Scene(
            workspace=scene.workspace,
            objects=scene.objects,
            current=(Vec2(0.2, 0.5), Vec2(0.95, 0.58)),
            goal=(Vec2(0.95, 0.5), Vec2(0.2, 0.85)),
        )
        action = PushPlace(0, Side.UP, Vec2(0.95, 0.475))
        noisy = NoiseConfig(lateral_sigma=0.05, depth_sigma=0.0, enabled=True)
        seen = False
        for seed in range(30):
            out, events = simulate(scene, action, noise=noisy, rng=random.Random(seed))
            for i in range(out.n):
                ri = footprint(out, i)
                assert ri.hi.x <= 1.0 and ri.lo.x >= 0.0
            if any(e.kind is SimEventKind.LEFT_TABLE for e in events):
                seen = True
                break
        assert seen, "no clipped drift in 30 seeded trials"

    def test_full_width_blocker_stays_on_the_table(self):
        # Blocker 1 is exactly as wide as the table, and validation's zero
        # edge margin admits pushing it up the table.  It has no room to
        # drift across the push, so its x stays put and its footprint stays
        # on the table; its drift along the push is kept.
        scene = Scene(
            Rect(Vec2(0.0, 0.0), Vec2(0.1, 1.0)),
            (ObjectSpec(HalfDims(0.04, 0.04)), ObjectSpec(HalfDims(0.05, 0.05))),
            (Vec2(0.05, 0.2), Vec2(0.05, 0.5)),
            (Vec2(0.05, 0.5), Vec2(0.05, 0.9)),
        )
        action = PushPlace(0, Side.UP, Vec2(0.05, 0.405))
        validate_action(scene, action)
        exact, _ = simulate(scene, action)
        assert _poses_close(exact.current, apply_action(scene, action).current)
        for seed in range(5):
            out, events = simulate(scene, action, noise=NoiseConfig(enabled=True), rng=random.Random(seed))
            assert out.current[1].x == 0.05 and out.current[1].y != exact.current[1].y
            r = footprint(out, 1)
            assert r.lo.x >= 0.0 and r.hi.x <= 0.1
            assert [e.object for e in events if e.kind is SimEventKind.LEFT_TABLE] == [1]

    def test_placement_drifted_past_an_edge_rests_flush(self):
        # A placement may rest flush at the edge: no inset.
        scene = Scene(
            Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)),
            (ObjectSpec(HalfDims(0.0625, 0.0625)),),
            (Vec2(0.5, 0.5),),
            (Vec2(0.5, 0.25),),
        )
        noisy = NoiseConfig(lateral_sigma=0.0, depth_sigma=0.2, enabled=True)
        flush = 0
        for seed in range(20):
            # The placement's drift along x is its first draw.
            dx = random.Random(seed).uniform(-0.2, 0.2)
            out, _ = simulate(scene, PickPlace(0, Vec2(0.9375, 0.5)), noise=noisy, rng=random.Random(seed))
            if dx > 0.0:
                assert footprint(out, 0).hi.x == 1.0
                flush += 1
            else:
                assert out.current[0] == Vec2(0.9375 + dx, 0.5)
        assert 0 < flush < 20

    def test_pushed_object_drifted_past_an_edge_rests_inset(self):
        # The blocker ends the push 0.001 m from the right wall; a pushed
        # object clamped at an edge rests EDGE_REST_INSET inside it.
        scene = Scene(
            Rect(Vec2(0.0, 0.0), Vec2(1.0, 1.0)),
            (ObjectSpec(HalfDims(0.05, 0.05)), ObjectSpec(HalfDims(0.05, 0.05))),
            (Vec2(0.2, 0.5), Vec2(0.949, 0.58)),
            (Vec2(0.949, 0.5), Vec2(0.2, 0.85)),
        )
        action = PushPlace(0, Side.UP, Vec2(0.949, 0.475))
        noisy = NoiseConfig(lateral_sigma=0.05, depth_sigma=0.0, enabled=True)
        clamped = 0
        for seed in range(20):
            out, events = simulate(scene, action, noise=noisy, rng=random.Random(seed))
            if any(e.kind is SimEventKind.LEFT_TABLE for e in events):
                assert out.current[1].x == (1.0 - EDGE_REST_INSET) - 0.05
                assert footprint(out, 1).hi.x == pytest.approx(1.0 - EDGE_REST_INSET, abs=1e-12)
                clamped += 1
            else:
                assert footprint(out, 1).hi.x < 1.0 - EDGE_REST_INSET
        assert 0 < clamped < 20

    def test_noisy_push_on_a_table_narrower_than_two_insets(self):
        # The table is 1.5 mm wide, less than EDGE_REST_INSET on each side
        # plus the blocker's 1 mm width: the blocker has no room to drift
        # across the push, so it keeps its x and stays on the table.
        scene = Scene(
            Rect(Vec2(0.0, 0.0), Vec2(0.0015, 1.0)),
            (ObjectSpec(HalfDims(0.0005, 0.05)), ObjectSpec(HalfDims(0.0005, 0.05))),
            (Vec2(0.00075, 0.2), Vec2(0.00075, 0.52)),
            (Vec2(0.00075, 0.5), Vec2(0.00075, 0.9)),
        )
        action = PushPlace(0, Side.UP, Vec2(0.00075, 0.415))
        out, _ = simulate(scene, action, noise=NoiseConfig(enabled=True), rng=random.Random(1))
        assert [p.x for p in out.current] == [0.00075, 0.00075]
        for i in range(out.n):
            r = footprint(out, i)
            assert r.lo.x >= 0.0 and r.hi.x <= 0.0015 and r.lo.y >= 0.0 and r.hi.y <= 1.0
        assert not overlaps(footprint(out, 0), footprint(out, 1))

    @pytest.mark.parametrize("sigma", [9e307, math.inf, math.nan, -0.001])
    @pytest.mark.parametrize("field", ["lateral_sigma", "depth_sigma"])
    def test_a_sigma_outside_zero_to_half_the_largest_float_is_rejected(self, field, sigma):
        # ``rng.uniform(-s, s)`` overflows past half the largest float, and a
        # push drift of ``0 * inf`` was a NaN pose.
        with pytest.raises(ValueError, match=f"'{field}' must be in"):
            NoiseConfig(**{field: sigma}, enabled=True)

    @pytest.mark.parametrize("fields, name", [({"enabled": "no"}, "enabled"), ({"lateral_sigma": "x"}, "lateral_sigma")])
    def test_a_field_outside_its_rule_is_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            NoiseConfig(**fields)

    def test_the_largest_sigma_still_settles_on_the_table(self):
        big = sys.float_info.max / 2
        noisy = NoiseConfig(lateral_sigma=big, depth_sigma=big, enabled=True)
        scene = _row_scene([0.2, 0.5], Vec2(0.45, 0.5))
        for action in (select_push(scene, 0).as_action(), PickPlace(1, Vec2(0.8, 0.2))):
            out, _ = simulate(scene, action, noise=noisy, rng=random.Random(3))
            for i in range(out.n):
                r = footprint(out, i)
                assert 0.0 <= r.lo.x and r.hi.x <= 1.0 and 0.0 <= r.lo.y and r.hi.y <= 1.0


def assert_refused_as_validated(scene, action, match):
    """``simulate`` refuses ``action`` with ``validate_action``'s error, whose
    message matches ``match``."""
    with pytest.raises(InfeasibleActionError, match=match) as want:
        validate_action(scene, action)
    with pytest.raises(InfeasibleActionError) as got:
        simulate(scene, action)
    assert str(got.value) == str(want.value)


class TestValidationErrors:
    def test_unknown_object(self, swap_scene):
        assert_refused_as_validated(swap_scene, PickPlace(5, Vec2(0.5, 0.2)), "unknown object 5")

    # The admissible pre-push pose for this side is (0.545, 0.5); each pose
    # below misses it, so the push is refused before any sweep.
    def test_misaligned_pre_push(self, swap_scene):
        assert_refused_as_validated(
            swap_scene, PushPlace(0, Side.RIGHT, Vec2(0.345, 0.51)), "does not match the admissible pose"
        )

    def test_pre_push_beyond_goal(self, swap_scene):
        assert_refused_as_validated(
            swap_scene, PushPlace(0, Side.RIGHT, Vec2(0.8, 0.5)), "does not match the admissible pose"
        )

    def test_pre_push_off_table(self, swap_scene):
        assert_refused_as_validated(
            swap_scene, PushPlace(0, Side.RIGHT, Vec2(0.03, 0.5)), "does not match the admissible pose"
        )

    def test_pre_push_overlap(self, swap_scene):
        # pose 0.60 overlaps object 1 at 0.65
        assert_refused_as_validated(
            swap_scene, PushPlace(0, Side.RIGHT, Vec2(0.6, 0.5)), "does not match the admissible pose"
        )

    def test_occupied_pick_place_destination(self, swap_scene):
        assert_refused_as_validated(swap_scene, PickPlace(0, Vec2(0.66, 0.5)), "overlaps object 1")

    def test_non_canonical_push_is_refused(self, swap_scene):
        # The blocker would rest fine, but the pose is not the canonical one;
        # from the canonical pose the same push is simulated.
        action = PushPlace(0, Side.RIGHT, Vec2(0.5, 0.5))
        assert_refused_as_validated(swap_scene, action, "does not match the admissible pose")
        out, events = simulate(swap_scene, replace(action, pre_push=Vec2(0.545, 0.5)))
        assert out.current[0] == Vec2(0.65, 0.5)
        assert [e.kind for e in events] == [SimEventKind.PUSHED]
