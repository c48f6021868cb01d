"""Quasi-static forward simulation of admitted actions.

Motion is axis-aligned and translation-only: the pusher's leading face
carries whatever it meets, contact propagates transitively down the line,
and nothing ever moves against the push direction during the sweep itself.
The contact chain is physics independent of the transition model, so its
events audit the model: ``simulate`` runs exactly the actions
``validate_action`` admits and refuses any other, and on an admitted push
every carried object should be a blocker the target carries itself.
Optional placement noise models imprecise dropping and the slight wobble of
pushed objects; a drift that reaches the table edge is clamped inside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .geometry import Bounds, Rect, Side, Vec2, bounds_extent, bounds_from_center, overlaps, perp_coord
# ``rect_from_center`` is not called here: the simulator reads footprints as
# ``Bounds``.  It stays bound because perfbench's tracer and its tests look
# it up in this module.
from .geometry import rect_from_center  # noqa: F401
from .scene import (
    DEFAULT_CLEARANCE,
    Action,
    Arrangement,
    InfeasibleActionError,
    InvalidSceneError,
    PickPlace,
    Scene,
    validate_action,
)

# Clamped objects come to rest this far inside the table edge.  Meters.
EDGE_REST_INSET = 0.001


class SimEventKind(Enum):
    """A swept object's kind is its place in the contact chain, blocker or not:
    PUSHED when the target carries it, SECONDARY_CONTACT when another carried
    object does.  LEFT_TABLE: a pushed object whose noise drift reached the
    table edge, clamped back inside it."""

    PUSHED = "pushed"
    SECONDARY_CONTACT = "secondary_contact"
    LEFT_TABLE = "left_table"


@dataclass(frozen=True, slots=True)
class SimEvent:
    kind: SimEventKind
    object: int
    detail: str = ""


@dataclass(frozen=True, slots=True)
class NoiseConfig:
    """Uniform placement disturbances.  Sigmas are half-widths in meters."""

    lateral_sigma: float = 0.003
    depth_sigma: float = 0.002
    enabled: bool = False


NO_NOISE = NoiseConfig(enabled=False)


def _lat_interval(b: Bounds, side: Side) -> tuple[float, float]:
    return (b[1], b[3]) if side.horizontal else (b[0], b[2])


def _bounds_at(scene: Scene, poses: list[Vec2], k: int) -> Bounds:
    """Footprint bounds of object ``k`` at ``poses[k]``: the scene's own while it is unmoved."""
    if poses[k] is scene.current[k]:
        return scene.bounds()[k]
    return bounds_from_center(poses[k], scene.objects[k].half)


@dataclass(slots=True)
class _Mover:
    obj: int
    lat_lo: float
    lat_hi: float
    start_front: float
    final_front: float
    layer: int


def push_forward(
    scene: Scene, target: int, side: Side, start: Vec2, end: Vec2
) -> tuple[Arrangement, list[SimEvent]]:
    """Sweep ``target`` from ``start`` to ``end`` and resolve the contact chain.

    Any object whose trailing face the advancing front passes rides along in
    face contact; a carried object in turn carries what it meets.  Objects
    contacted directly by the target yield Pushed events; contacts further
    down the chain yield SecondaryContact.  Positions are returned raw (no
    table-edge handling); the target itself ends at ``end``.

    ``start`` and ``end`` must differ only along the travel axis of ``side``
    and the travel must be non-negative.  The target's footprint at ``start``
    is assumed collision-free.
    """
    u = side.unit
    delta = end - start
    travel = delta.x * u.x + delta.y * u.y
    lateral = perp_coord(end, side) - perp_coord(start, side)
    if abs(lateral) > 1e-9:
        raise ValueError(f"push endpoints differ across the travel axis by {lateral}")
    if travel < 0.0:
        raise ValueError(f"push travel must be non-negative, got {travel}")

    start_bounds = bounds_from_center(start, scene.objects[target].half)
    lat_lo, lat_hi = _lat_interval(start_bounds, side)
    front0 = bounds_extent(start_bounds, side)[1]
    movers = [_Mover(target, lat_lo, lat_hi, front0, front0 + travel, 0)]

    poses = list(scene.current)
    poses[target] = end
    events: list[SimEvent] = []

    rects = scene.bounds()
    order = sorted(
        (j for j in range(scene.n) if j != target),
        key=lambda j: (bounds_extent(rects[j], side)[0], j),
    )
    for j in order:
        foot = rects[j]
        near, far = bounds_extent(foot, side)
        jlo, jhi = _lat_interval(foot, side)
        best: Optional[_Mover] = None
        for m in movers:
            if m.lat_lo < jhi and jlo < m.lat_hi and m.start_front <= near and m.final_front > near:
                if best is None or m.final_front > best.final_front:
                    best = m
        if best is None:
            continue
        d = best.final_front - near
        poses[j] = poses[j] + u * d
        layer = best.layer + 1
        movers.append(_Mover(j, jlo, jhi, far, far + d, layer))
        if layer == 1:
            events.append(SimEvent(SimEventKind.PUSHED, j, f"pushed {d:.6f} m by the target"))
        else:
            events.append(
                SimEvent(
                    SimEventKind.SECONDARY_CONTACT,
                    j,
                    f"contact chain: pushed {d:.6f} m by object {best.obj}",
                )
            )
    return tuple(poses), events


def _clamp_box(scene: Scene) -> Rect:
    w = scene.workspace
    return Rect(
        Vec2(w.lo.x + EDGE_REST_INSET, w.lo.y + EDGE_REST_INSET),
        Vec2(w.hi.x - EDGE_REST_INSET, w.hi.y - EDGE_REST_INSET),
    )


def _clamp_pose(scene: Scene, obj: int, pose: Vec2, box: Rect) -> tuple[Vec2, bool]:
    """Clamp the footprint of ``obj`` at ``pose`` into ``box``; flag if moved."""
    half = scene.objects[obj].half
    x = min(max(pose.x, box.lo.x + half.a), box.hi.x - half.a)
    y = min(max(pose.y, box.lo.y + half.b), box.hi.y - half.b)
    clipped = (x != pose.x) or (y != pose.y)
    return Vec2(x, y), clipped


def _settle_with_noise(
    scene: Scene,
    poses: list[Vec2],
    obj: int,
    drift: Vec2,
    box: Rect,
) -> bool:
    """Move ``obj`` by as much of ``drift`` as fits without creating overlap.

    Halves the drift until the clamped pose is free.  Once the fraction of
    the drift falls below 1e-6 with no free pose found, ``obj`` keeps its
    settled pose.  Returns True if the pose it moved to was clamped at an edge.
    """
    base = poses[obj]
    t = 1.0
    while True:
        cand, clipped = _clamp_pose(scene, obj, base + drift * t, box)
        r = bounds_from_center(cand, scene.objects[obj].half)
        free = not any(overlaps(r, _bounds_at(scene, poses, k)) for k in range(scene.n) if k != obj)
        if free:
            poses[obj] = cand
            return clipped
        if t < 1e-6:
            return False
        t /= 2.0


def _outcome(scene: Scene, poses: list[Vec2]) -> Scene:
    """``scene`` with ``poses``, built by ``Scene.with_moved`` from the poses that changed.

    Raises InvalidSceneError when a moved object leaves the table or overlaps
    another, as construction would: the physics must never produce that.
    """
    moves = [(k, pose) for k, pose in enumerate(poses) if pose is not scene.current[k]]
    try:
        return scene.with_moved(moves)
    except InfeasibleActionError as e:
        raise InvalidSceneError(f"simulated outcome is invalid: {e}") from None


def simulate(
    scene: Scene,
    action: Action,
    noise: NoiseConfig = NO_NOISE,
    rng: Optional[random.Random] = None,
) -> tuple[Scene, list[SimEvent]]:
    """Physics-level outcome of one action, plus what happened along the way.

    The actions simulated are exactly those ``validate_action`` admits; any
    other raises its InfeasibleActionError (an unknown object, an occupied
    PickPlace destination, a push off its canonical pre-push pose or one the
    model refuses).  With noise disabled the outcome agrees with
    ``scene.apply_action`` (to float noise), and the contact events are
    ``push_forward``'s, unchanged (see ``SimEventKind``).  The returned scene
    is always valid: only the objects whose pose changed are checked, and one
    that fails raises InvalidSceneError.  It carries a cache
    (``Scene.with_moved``); so does the scene the physics reads, since a
    scene without one is given it first (``Scene.with_footprints``).
    """
    if noise.enabled and rng is None:
        raise ValueError("noise is enabled but no rng was provided")
    scene = scene.with_footprints()
    validate_action(scene, action)

    if isinstance(action, PickPlace):
        poses = list(scene.current)
        poses[action.object] = action.destination
        if noise.enabled:
            drift = Vec2(
                rng.uniform(-noise.depth_sigma, noise.depth_sigma),
                rng.uniform(-noise.lateral_sigma, noise.lateral_sigma),
            )
            # Placement error stays on the table but may rest flush at the edge.
            _settle_with_noise(scene, poses, action.object, drift, scene.workspace)
        return _outcome(scene, poses), []

    target = action.object
    side = action.side
    goal = scene.goal[target]
    # Sweep one clearance past the goal so every carried object ends clear of
    # the goal region with a visible gap, then set the grasped target down on
    # the goal itself.
    sweep_end = goal + side.unit * DEFAULT_CLEARANCE
    raw_poses, events = push_forward(scene, target, side, action.pre_push, sweep_end)
    poses = list(raw_poses)
    poses[target] = goal

    if noise.enabled:
        box = _clamp_box(scene)
        for j in sorted(ev.object for ev in events):
            depth = rng.uniform(-noise.depth_sigma, noise.depth_sigma)
            lat = rng.uniform(-noise.lateral_sigma, noise.lateral_sigma)
            u = side.unit
            drift = u * depth + Vec2(-u.y, u.x) * lat
            if _settle_with_noise(scene, poses, j, drift, box):
                events.append(
                    SimEvent(SimEventKind.LEFT_TABLE, j, "noise drift reached the table edge; clamped")
                )

    return _outcome(scene, poses), events
