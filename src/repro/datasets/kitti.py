"""Simulated LiDAR sequences standing in for the KITTI odometry dataset.

The paper's registration experiments (A-LOAM on KITTI) need sequential LiDAR
scans with ground-truth poses.  We simulate a spinning multi-beam scanner
moving through a synthetic world of walls, pillars, and ground: the scanner
emits rays in azimuth order, so points arrive *serialized by scan angle* —
exactly the property the paper exploits when splitting LiDAR clouds into
even chunks by arrival order (Sec. 4.1, "How to Split").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import DatasetError
from repro.pointcloud.cloud import PointCloud

_EPS = 1e-9


@dataclass(frozen=True)
class Wall:
    """A finite vertical rectangle: plane through *origin* with *normal*."""

    origin: np.ndarray
    normal: np.ndarray
    half_width: float
    height: float


@dataclass(frozen=True)
class Pillar:
    """A vertical cylinder (infinite caps clipped by height)."""

    center_xy: np.ndarray
    radius: float
    height: float


@dataclass
class World:
    """A synthetic static environment the scanner can raycast against."""

    walls: List[Wall] = field(default_factory=list)
    pillars: List[Pillar] = field(default_factory=list)
    ground_z: float = 0.0

    def raycast(self, origin: np.ndarray, direction: np.ndarray,
                max_range: float) -> Optional[float]:
        """Return the distance to the first hit, or None if nothing hit."""
        best = max_range
        hit = False
        t = self._ground_hit(origin, direction)
        if t is not None and t < best:
            best, hit = t, True
        for wall in self.walls:
            t = self._wall_hit(wall, origin, direction)
            if t is not None and t < best:
                best, hit = t, True
        for pillar in self.pillars:
            t = self._pillar_hit(pillar, origin, direction)
            if t is not None and t < best:
                best, hit = t, True
        return best if hit else None

    def _ground_hit(self, origin, direction) -> Optional[float]:
        if abs(direction[2]) < _EPS:
            return None
        t = (self.ground_z - origin[2]) / direction[2]
        return t if t > _EPS else None

    def _wall_hit(self, wall: Wall, origin, direction) -> Optional[float]:
        denom = float(np.dot(wall.normal, direction))
        if abs(denom) < _EPS:
            return None
        t = float(np.dot(wall.normal, wall.origin - origin)) / denom
        if t <= _EPS:
            return None
        point = origin + t * direction
        if not (self.ground_z - _EPS <= point[2]
                <= wall.origin[2] + wall.height):
            return None
        along = point - wall.origin
        tangent = np.array([-wall.normal[1], wall.normal[0], 0.0])
        if abs(float(np.dot(along, tangent))) > wall.half_width:
            return None
        return t

    def _pillar_hit(self, pillar: Pillar, origin, direction
                    ) -> Optional[float]:
        # Solve |o_xy + t d_xy - c|^2 = r^2 for the smallest positive t.
        d = direction[:2]
        o = origin[:2] - pillar.center_xy
        a = float(np.dot(d, d))
        if a < _EPS:
            return None
        b = 2.0 * float(np.dot(o, d))
        c = float(np.dot(o, o)) - pillar.radius ** 2
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        sqrt_disc = float(np.sqrt(disc))
        for t in sorted(((-b - sqrt_disc) / (2 * a),
                         (-b + sqrt_disc) / (2 * a))):
            if t <= _EPS:
                continue
            z = origin[2] + t * direction[2]
            if self.ground_z - _EPS <= z <= pillar.height:
                return t
        return None


def make_urban_world(seed: int = 0, n_pillars: int = 12,
                     arena: float = 40.0) -> World:
    """Build a canyon-like world: two long walls plus random pillars."""
    rng = np.random.default_rng(seed)
    walls = [
        Wall(np.array([0.0, -10.0, 0.0]), np.array([0.0, 1.0, 0.0]),
             half_width=arena, height=5.0),
        Wall(np.array([0.0, 10.0, 0.0]), np.array([0.0, -1.0, 0.0]),
             half_width=arena, height=5.0),
        Wall(np.array([arena, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
             half_width=12.0, height=5.0),
    ]
    pillars = []
    for _ in range(n_pillars):
        center = np.array([rng.uniform(3.0, arena - 4.0),
                           rng.uniform(-8.0, 8.0)])
        pillars.append(Pillar(center, radius=rng.uniform(0.3, 0.8),
                              height=rng.uniform(2.0, 4.5)))
    return World(walls=walls, pillars=pillars)


@dataclass(frozen=True)
class ScannerConfig:
    """Spinning LiDAR geometry: azimuth steps x vertical beams."""

    n_azimuth: int = 180
    n_beams: int = 8
    vertical_fov: tuple = (-0.30, 0.10)  # radians, down / up
    max_range: float = 60.0
    mount_height: float = 1.6
    range_noise_sigma: float = 0.01


def simulate_scan(world: World, pose: np.ndarray, config: ScannerConfig,
                  rng: Optional[np.random.Generator] = None) -> PointCloud:
    """Raycast one full revolution from the 4x4 *pose*.

    Points are returned in emission order (azimuth-major, beam-minor), in
    the *sensor frame*, with attributes:

    * ``ring`` — beam index
    * ``azimuth_step`` — azimuth index (the serialization order)
    """
    pose = np.asarray(pose, dtype=np.float64)
    if pose.shape != (4, 4):
        raise DatasetError(f"pose must be 4x4, got {pose.shape}")
    rng = rng or np.random.default_rng(0)
    rotation, translation = pose[:3, :3], pose[:3, 3]
    origin = translation + np.array([0.0, 0.0, config.mount_height])
    azimuths = np.linspace(0, 2 * np.pi, config.n_azimuth, endpoint=False)
    elevations = np.linspace(config.vertical_fov[0], config.vertical_fov[1],
                             config.n_beams)
    points, rings, steps = [], [], []
    for step, az in enumerate(azimuths):
        for ring, el in enumerate(elevations):
            direction_local = np.array([
                np.cos(el) * np.cos(az),
                np.cos(el) * np.sin(az),
                np.sin(el),
            ])
            direction = rotation @ direction_local
            dist = world.raycast(origin, direction, config.max_range)
            if dist is None:
                continue
            dist += rng.normal(0.0, config.range_noise_sigma)
            point_world = origin + dist * direction
            point_sensor = rotation.T @ (point_world - translation)
            points.append(point_sensor)
            rings.append(ring)
            steps.append(step)
    if not points:
        raise DatasetError("scan produced no returns; check world geometry")
    return PointCloud(
        np.array(points),
        {"ring": np.array(rings, dtype=np.int64),
         "azimuth_step": np.array(steps, dtype=np.int64)},
    )


def straight_trajectory(n_poses: int, step: float = 0.5,
                        yaw_rate: float = 0.0) -> List[np.ndarray]:
    """Ground-truth poses along a (possibly curving) forward drive."""
    if n_poses <= 0:
        raise DatasetError("n_poses must be positive")
    poses = []
    x, y, yaw = 0.0, 0.0, 0.0
    for _ in range(n_poses):
        pose = np.eye(4)
        c, s = np.cos(yaw), np.sin(yaw)
        pose[:3, :3] = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        pose[:3, 3] = [x, y, 0.0]
        poses.append(pose)
        x += step * np.cos(yaw)
        y += step * np.sin(yaw)
        yaw += yaw_rate
    return poses


@dataclass
class LidarSequence:
    """A simulated KITTI-like sequence: scans plus ground-truth poses."""

    scans: List[PointCloud]
    poses: List[np.ndarray]
    config: ScannerConfig

    def __len__(self) -> int:
        return len(self.scans)


def make_kitti_sequence(
    n_scans: int = 6,
    seed: int = 0,
    config: Optional[ScannerConfig] = None,
    step: float = 0.5,
    yaw_rate: float = 0.0,
) -> LidarSequence:
    """Simulate a short KITTI-like drive through the urban world."""
    if n_scans <= 0:
        raise DatasetError("n_scans must be positive")
    config = config or ScannerConfig()
    world = make_urban_world(seed=seed)
    poses = straight_trajectory(n_scans, step=step, yaw_rate=yaw_rate)
    rng = np.random.default_rng(seed + 1)
    scans = [simulate_scan(world, pose, config, rng) for pose in poses]
    return LidarSequence(scans=scans, poses=poses, config=config)


def make_lidar_frame_sequence(n_frames: int = 6, n_points: int = 2048,
                              seed: int = 0, step: float = 0.4,
                              yaw_rate: float = 0.0,
                              config: Optional[ScannerConfig] = None
                              ) -> List[PointCloud]:
    """Constant-size LiDAR frames for streaming sessions.

    Simulates a short drive and trims every scan to a common point
    count (at most *n_points*), so consecutive frames share the exact
    chunk occupancy serial splitting derives from the point count —
    the condition for a :class:`repro.streaming.StreamSession` to take
    its index fast path, just like fixed-return-count LiDAR packets.
    Points stay serialized by scan angle (azimuth-major), preserving
    the arrival-order property serial splitting exploits.
    """
    if n_points <= 0:
        raise DatasetError(f"n_points must be positive, got {n_points}")
    config = config or ScannerConfig(n_azimuth=max(8, n_points // 8),
                                     n_beams=8, range_noise_sigma=0.02)
    sequence = make_kitti_sequence(n_scans=n_frames, seed=seed,
                                   config=config, step=step,
                                   yaw_rate=yaw_rate)
    size = min(min(len(scan) for scan in sequence.scans), n_points)
    return [scan.select(np.arange(size)) for scan in sequence.scans]


def make_lidar_stream_frames(n_frames: int = 6, n_points: int = 4608,
                             advance: int = 512, seed: int = 0,
                             step: float = 0.3, yaw_rate: float = 0.0,
                             config: Optional[ScannerConfig] = None
                             ) -> List[PointCloud]:
    """Sliding-window frames over one continuous LiDAR point stream.

    The Lisco-style streaming model: the scanner emits an unbroken
    stream of points in arrival order while driving, and frame *f* is
    the window ``stream[f * advance : f * advance + n_points]``.
    Consecutive frames overlap in ``n_points - advance`` points, so
    when ``advance`` equals the serial chunk size of a splitting config
    (``n_points`` divisible by the chunk count), each frame's stencil
    windows hold exactly the coordinates of the previous frame's
    shifted windows — the condition for a streaming session to reuse
    window kd-trees outright, not just chunk membership.
    """
    if n_frames <= 0:
        raise DatasetError(f"n_frames must be positive, got {n_frames}")
    if n_points <= 0 or advance <= 0:
        raise DatasetError("n_points and advance must be positive")
    config = config or ScannerConfig(n_azimuth=max(8, n_points // 8),
                                     n_beams=8, range_noise_sigma=0.02)
    world = make_urban_world(seed=seed)
    rng = np.random.default_rng(seed + 1)
    needed = n_points + (n_frames - 1) * advance
    pieces: List[np.ndarray] = []
    total = 0
    x, y, yaw = 0.0, 0.0, 0.0
    while total < needed:
        pose = np.eye(4)
        c, s = np.cos(yaw), np.sin(yaw)
        pose[:3, :3] = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        pose[:3, 3] = [x, y, 0.0]
        scan = simulate_scan(world, pose, config, rng)
        # Arrival order is preserved; the stream lives in the world
        # frame so consecutive scans form one spatial sequence.
        world_points = scan.positions @ pose[:3, :3].T + pose[:3, 3]
        pieces.append(world_points)
        total += len(world_points)
        x += step * np.cos(yaw)
        y += step * np.sin(yaw)
        yaw += yaw_rate
    stream = np.concatenate(pieces)[:needed]
    return [PointCloud(stream[f * advance: f * advance + n_points])
            for f in range(n_frames)]


def make_lidar_cloud(n_points: int = 4096, seed: int = 0) -> PointCloud:
    """A single dense LiDAR-like cloud for kNN profiling experiments.

    Used by the Sec. 3 step-distribution profile and the Fig. 6 chunk-access
    study: the cloud is spatially coherent and serialized by azimuth like a
    real LiDAR sweep.
    """
    config = ScannerConfig(n_azimuth=max(8, n_points // 8), n_beams=8,
                           range_noise_sigma=0.02)
    world = make_urban_world(seed=seed, n_pillars=16)
    scan = simulate_scan(world, np.eye(4), config,
                         np.random.default_rng(seed))
    if len(scan) > n_points:
        scan = scan.select(np.arange(n_points))
    return scan
