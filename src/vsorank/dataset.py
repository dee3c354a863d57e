"""Rank-annotation format, dataset statistics, and the synthetic generator.

On disk a sequence is a directory::

    <seq>/manifest.json      {"frames": [<idx>, ...], "seed": <int>}
    <seq>/frames/<idx>.pgm   16-bit instance-ID map (0 = background)
    <seq>/ranks/<idx>.json   {"ranks": {"<instance id>": <rank>, ...}}
    <seq>/features/<idx>.bin raw float64 object features (optional; JSON
                             shape header line followed by little-endian data)

The synthetic generator produces sequences of axis-aligned rectangles, one
per horizontal lane so instances never occlude each other, moving with a
constant per-object velocity.  A latent saliency scalar per object defines
the ground-truth rank and is written into channel 0 of that object's feature
block, optionally corrupted by zero-mean noise (a per-frame, per-channel
offset shared by all objects plus a small i.i.d. term).  Latents are redrawn
at swap events, so ranks change across frames at a configurable rate.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .pgm import PgmError, read_pgm16, write_pgm16
from .temporal import rank_assign

__all__ = [
    "AnnotationError",
    "FileFormatError",
    "PgmError",
    "RankAnnotation",
    "DatasetStats",
    "FrameSample",
    "SequenceSample",
    "SynthConfig",
    "read_text",
    "load_annotation",
    "save_annotation",
    "compute_stats",
    "compute_video_stats",
    "synth_generate",
    "read_tensor_file",
    "write_tensor_file",
    "save_sequence",
    "save_annotations",
    "load_annotations",
    "load_sequence",
    "list_sequences",
]


class AnnotationError(ValueError):
    """Inconsistent instance map / rank table content."""


class FileFormatError(AnnotationError):
    """A file (rank table, manifest, ``params.json``, config) that is not UTF-8
    text or does not parse; the message names the file."""


def read_text(path, parse):
    """The UTF-8 text of the file ``path``, passed through ``parse``.

    Undecodable bytes, and a ``ValueError`` or ``RecursionError`` from
    ``parse`` (invalid JSON, or JSON nested too deep for ``json.loads``),
    raise ``FileFormatError`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        return parse(text)
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _instance_ids(instance_map: np.ndarray) -> set[int]:
    """The nonzero values of a map of whole numbers, which must fit in uint16.

    One sort gives the range and the id set; ``np.unique`` would take numpy's
    hash path, several times slower than a radix sort.
    """
    values = np.sort(instance_map, axis=None)
    if values[0] < 0 or values[-1] > 65535:
        raise AnnotationError("instance ids must fit in uint16")
    distinct = np.empty(values.size, dtype=bool)
    distinct[0] = True
    np.not_equal(values[1:], values[:-1], out=distinct[1:])
    return {int(v) for v in values[distinct].tolist()} - {0}


@dataclass(frozen=True)
class RankAnnotation:
    """Instance-ID map plus an instance-to-rank table (1 = most salient)."""

    instance_map: np.ndarray  # 2D uint16, 0 = background
    ranks: dict[int, int]

    def __post_init__(self):
        arr = np.asarray(self.instance_map)
        if arr.ndim != 2:
            raise AnnotationError(f"instance map must be 2D, got shape {arr.shape}")
        if arr.size == 0:
            raise AnnotationError(f"instance map has no pixels, got shape {arr.shape}")
        if arr.dtype.kind not in "biu" and not np.array_equal(np.floor(arr), arr):
            raise AnnotationError("instance ids must be whole numbers")
        map_ids = _instance_ids(arr)
        object.__setattr__(self, "instance_map", arr.astype(np.uint16))
        table_ids = set(self.ranks)
        if map_ids != table_ids:
            raise AnnotationError(
                f"instance map ids {sorted(map_ids)} do not match rank table ids {sorted(table_ids)}"
            )
        k = len(self.ranks)
        if sorted(self.ranks.values()) != list(range(1, k + 1)):
            raise AnnotationError(
                f"ranks {dict(sorted(self.ranks.items()))} are not a permutation of 1..{k}"
            )

    @property
    def instance_count(self) -> int:
        return len(self.ranks)

    def object_ids(self) -> list[int]:
        return sorted(self.ranks)

    def masks(self) -> np.ndarray:
        """Per-object boolean masks (K, H, W), ordered by ascending instance id."""
        # Ids in the map's own dtype: an int64 array would upcast every pixel.
        ids = np.array(self.object_ids(), dtype=self.instance_map.dtype)
        return self.instance_map == ids[:, None, None]

    def ranks_in_id_order(self) -> list[int]:
        return [self.ranks[i] for i in self.object_ids()]


def load_annotation(instance_map_path, ranks_path) -> RankAnnotation:
    """Read and validate one frame's annotation pair."""
    instance_map = read_pgm16(instance_map_path)
    doc = read_text(ranks_path, json.loads)
    if not isinstance(doc, dict) or "ranks" not in doc or not isinstance(doc["ranks"], dict):
        raise AnnotationError(f'{ranks_path}: expected an object with a "ranks" table')
    table = doc["ranks"]
    try:  # ids spelled as save_annotation writes them; ranks JSON integers
        valid = all(k == str(int(k)) and _is_int(v) for k, v in table.items())
    except ValueError:
        valid = False
    if not valid:
        raise AnnotationError(f"{ranks_path}: non-integer id or rank")
    ranks = {int(k): v for k, v in table.items()}
    try:
        return RankAnnotation(instance_map=instance_map, ranks=ranks)
    except AnnotationError as exc:
        raise AnnotationError(f"{ranks_path}: {exc}") from None


def save_annotation(annotation: RankAnnotation, instance_map_path, ranks_path) -> None:
    write_pgm16(instance_map_path, annotation.instance_map)
    doc = {"ranks": {str(k): int(v) for k, v in sorted(annotation.ranks.items())}}
    with open(ranks_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


# -- statistics --------------------------------------------------------------


@dataclass(frozen=True)
class DatasetStats:
    """Object-count distribution over frames (or videos, see ``compute_video_stats``).

    ``count_histogram`` holds the fraction of units with 1, 2, 3, 4, and 5+
    objects; a unit with fewer than two objects has nothing to rank, so
    ``invalid_rate`` equals the first bin.
    """

    frame_count: int
    invalid_rate: float
    count_histogram: tuple[float, float, float, float, float]


def _stats_from_counts(counts: list[int]) -> DatasetStats:
    if not counts:
        raise ValueError("no annotations given")
    bins = np.zeros(5, dtype=np.int64)
    for k in counts:
        bins[min(k, 5) - 1] += 1
    fractions = bins / len(counts)
    return DatasetStats(
        frame_count=len(counts),
        invalid_rate=float(fractions[0]),
        count_histogram=tuple(float(f) for f in fractions),
    )


def compute_stats(annotations) -> DatasetStats:
    """Per-frame statistics over an iterable of annotations."""
    return _stats_from_counts([a.instance_count for a in annotations])


def compute_video_stats(sequences) -> DatasetStats:
    """Per-video statistics; each video is binned by its maximum object count."""
    counts = []
    for annotations in sequences:
        frame_counts = [a.instance_count for a in annotations]
        if not frame_counts:
            raise ValueError("a sequence contains no annotations")
        counts.append(max(frame_counts))
    return _stats_from_counts(counts)


# -- synthetic sequences ------------------------------------------------------


@dataclass(frozen=True)
class FrameSample:
    """Raw per-frame data: object features (N, C, H, W) and masks (N, Hf, Wf)."""

    features: np.ndarray
    masks: np.ndarray


@dataclass(frozen=True)
class SequenceSample:
    frames: list[FrameSample]
    annotations: list[RankAnnotation]
    seed: int


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; defaults give the standard desk-scale task."""

    T: int = 3
    K_range: tuple[int, int] = (3, 3)
    C: int = 16
    H: int = 7
    W: int = 7
    frame_resolution: tuple[int, int] = (64, 64)  # (height, width)
    rank_swap_prob: float = 0.1
    noise_level: float = 0.5

    def __post_init__(self):
        for name in ("K_range", "frame_resolution"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or len(value) != 2:
                raise ValueError(f"{name} must be a pair of integers, got {value!r}")
        k_min, k_max = self.K_range
        frame_h, frame_w = self.frame_resolution
        for name, value in (("T", self.T), ("C", self.C), ("H", self.H), ("W", self.W),
                            ("K_range[0]", k_min), ("K_range[1]", k_max),
                            ("frame_resolution[0]", frame_h), ("frame_resolution[1]", frame_w)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("rank_swap_prob", "noise_level"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if k_min < 2:
            raise ValueError(f"K_range minimum must be >= 2, got {k_min}")
        if k_max < k_min:
            raise ValueError(f"K_range {self.K_range} is not ordered")
        if self.T < 1 or self.C < 1 or self.H < 1 or self.W < 1:
            raise ValueError("T, C, H, W must all be positive")
        if frame_h < 4 * k_max or frame_w < 12:
            raise ValueError(
                f"frame resolution {self.frame_resolution} too small for up to {k_max} objects"
            )
        if _latent_slack(k_max) <= 0:
            raise ValueError(f"cannot separate {k_max} saliency levels (K_range {self.K_range})")
        if not 0.0 <= self.rank_swap_prob <= 1.0:
            raise ValueError(f"rank_swap_prob must be in [0, 1], got {self.rank_swap_prob}")
        if self.noise_level < 0.0:
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")


_LATENT_LO = 0.2
_LATENT_HI = 1.0
_LATENT_GAP = 0.12  # minimum separation keeps the rank order unambiguous
_IID_NOISE_WEIGHT = 0.2


def _latent_slack(k: int) -> float:
    """Room for random offsets once k latents keep their minimum gaps."""
    span = _LATENT_HI - _LATENT_LO
    return span - (k - 1) * _LATENT_GAP


def _draw_latents(rng: np.random.Generator, k: int) -> np.ndarray:
    """k saliency scalars in [0.2, 1.0], pairwise gaps >= _LATENT_GAP."""
    slack = _latent_slack(k)
    offsets = np.sort(rng.uniform(0.0, slack, size=k))
    ordered = _LATENT_LO + offsets + _LATENT_GAP * np.arange(k)
    return ordered[rng.permutation(k)]


def synth_generate(config: SynthConfig, seed: int) -> SequenceSample:
    """Deterministically build one synthetic sequence from a seed."""
    rng = np.random.default_rng(seed)
    frame_h, frame_w = config.frame_resolution
    k = int(rng.integers(config.K_range[0], config.K_range[1] + 1))
    steps = config.T - 1

    # One horizontal lane per object: no occlusion, exact masks and IoU.
    lane_h = frame_h // k
    rect_h = np.empty(k, dtype=np.int64)
    rect_w = np.empty(k, dtype=np.int64)
    y0 = np.empty(k, dtype=np.int64)
    x0 = np.empty(k, dtype=np.float64)
    vx = np.empty(k, dtype=np.float64)
    w_lo, w_hi = max(3, frame_w // 10), max(4, frame_w // 4)
    max_speed = max(1.0, frame_w / 8.0) / max(steps, 1)
    for i in range(k):
        rect_h[i] = rng.integers(max(2, lane_h // 2), lane_h)
        rect_w[i] = rng.integers(w_lo, w_hi + 1)
        y0[i] = i * lane_h + rng.integers(0, lane_h - rect_h[i] + 1)
        vx[i] = rng.uniform(-max_speed, max_speed)
        drift = vx[i] * steps
        lo = max(0.0, -drift)
        hi = frame_w - rect_w[i] - max(0.0, drift)
        x0[i] = rng.uniform(lo, hi)

    latents = _draw_latents(rng, k)
    frames = []
    annotations = []
    for t in range(config.T):
        if t > 0 and rng.random() < config.rank_swap_prob:
            previous_order = rank_assign(latents)
            while True:
                latents = _draw_latents(rng, k)
                if not np.array_equal(rank_assign(latents), previous_order):
                    break
        ranks = rank_assign(latents)

        features = np.zeros((k, config.C, config.H, config.W))
        features[:, 0] = latents[:, None, None]
        if config.noise_level > 0.0:
            common = rng.standard_normal(config.C)
            iid = rng.standard_normal(features.shape)
            features += config.noise_level * (
                common[None, :, None, None] + _IID_NOISE_WEIGHT * iid
            )

        instance_map = np.zeros((frame_h, frame_w), dtype=np.uint16)
        masks = np.zeros((k, frame_h, frame_w), dtype=bool)
        for i in range(k):
            x = int(round(x0[i] + vx[i] * t))
            masks[i, y0[i]:y0[i] + rect_h[i], x:x + rect_w[i]] = True
            instance_map[masks[i]] = i + 1

        frames.append(FrameSample(features=features, masks=masks))
        annotations.append(RankAnnotation(
            instance_map=instance_map,
            ranks={i + 1: int(ranks[i]) for i in range(k)},
        ))
    return SequenceSample(frames=frames, annotations=annotations, seed=seed)


# -- raw tensor files ---------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def write_tensor_file(path, array: np.ndarray) -> None:
    """Raw float64 little-endian data preceded by a one-line JSON shape header."""
    arr = np.asarray(array, dtype="<f8")  # keeps a 0-d shape; tobytes() is C order
    header = json.dumps({"dtype": "<f8", "shape": list(arr.shape)})
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        f.write(b"\n")
        f.write(arr.tobytes())


def read_tensor_file(path) -> np.ndarray:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # undecodable, invalid or too deep
            raise ValueError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(header, dict) or "dtype" not in header:
            raise ValueError(f'{path}: header must be an object with "dtype" and "shape"')
        if header["dtype"] != "<f8":
            raise ValueError(f"{path}: unsupported dtype {header['dtype']!r}")
        shape = header.get("shape")
        if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
            raise ValueError(f"{path}: shape must be a list of non-negative integers, got {shape!r}")
        shape = tuple(shape)
        raw = f.read()
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} data bytes, found {len(raw)}")
    try:
        return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    except ValueError as exc:  # a shape numpy cannot hold, e.g. too many dimensions
        raise ValueError(f"{path}: unsupported shape ({exc})") from exc


# -- sequence directories -----------------------------------------------------


def save_annotations(path, annotations: list[RankAnnotation], seed: int = 0) -> None:
    """Write manifest, instance maps, and rank tables (no features)."""
    os.makedirs(os.path.join(path, "frames"), exist_ok=True)
    os.makedirs(os.path.join(path, "ranks"), exist_ok=True)
    indices = list(range(len(annotations)))
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump({"frames": indices, "seed": seed}, f)
        f.write("\n")
    for idx, annotation in zip(indices, annotations):
        save_annotation(
            annotation,
            os.path.join(path, "frames", f"{idx}.pgm"),
            os.path.join(path, "ranks", f"{idx}.json"),
        )


def save_sequence(path, sample: SequenceSample) -> None:
    """Write a full sequence including per-frame object features."""
    save_annotations(path, sample.annotations, seed=sample.seed)
    os.makedirs(os.path.join(path, "features"), exist_ok=True)
    for idx, frame in enumerate(sample.frames):
        write_tensor_file(os.path.join(path, "features", f"{idx}.bin"), frame.features)


def _read_manifest(path) -> dict:
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"{path}: no manifest.json")
    manifest = read_text(manifest_path, json.loads)
    frames = manifest.get("frames") if isinstance(manifest, dict) else None
    if not isinstance(frames, list) or not all(_is_int(idx) for idx in frames):
        raise AnnotationError(f'{manifest_path}: expected an object with a "frames" list of integers')
    if len(set(frames)) != len(frames):
        repeated = next(idx for i, idx in enumerate(frames) if idx in frames[:i])
        raise AnnotationError(f"{manifest_path}: frame {repeated} is listed more than once")
    if "seed" in manifest and not _is_int(manifest["seed"]):
        raise AnnotationError(f'{manifest_path}: "seed" must be an integer, got {manifest["seed"]!r}')
    return manifest


def load_annotations(path) -> list[tuple[int, RankAnnotation]]:
    """Annotations of one sequence directory in manifest (temporal) order."""
    manifest = _read_manifest(path)
    out = []
    for idx in manifest["frames"]:
        out.append((int(idx), load_annotation(
            os.path.join(path, "frames", f"{idx}.pgm"),
            os.path.join(path, "ranks", f"{idx}.json"),
        )))
    return out


def load_sequence(path) -> SequenceSample:
    """Full round-trip read of a sequence written by ``save_sequence``.

    Feature rows follow ascending instance id, matching the generator's
    object order.
    """
    manifest = _read_manifest(path)
    annotations = [a for _, a in load_annotations(path)]
    frames = []
    for idx, annotation in zip(manifest["frames"], annotations):
        features = read_tensor_file(os.path.join(path, "features", f"{idx}.bin"))
        if features.shape[0] != annotation.instance_count:
            raise AnnotationError(
                f"frame {idx}: {features.shape[0]} feature blocks for "
                f"{annotation.instance_count} instances"
            )
        frames.append(FrameSample(features=features, masks=annotation.masks()))
    return SequenceSample(frames=frames, annotations=annotations,
                          seed=int(manifest.get("seed", 0)))


def list_sequences(root) -> list[str]:
    """Names of sequence subdirectories (those holding a manifest), sorted."""
    names = []
    for name in sorted(os.listdir(root)):
        if os.path.isfile(os.path.join(root, name, "manifest.json")):
            names.append(name)
    return names
