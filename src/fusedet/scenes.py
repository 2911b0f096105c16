"""Synthetic grounding scenes: colored shapes on a 32x32 canvas.

Two query regimes drive the whole experiment:

* category queries ("the red circle") name a descriptor that occurs exactly
  once, so a detector trained on categories alone can solve them.
* spatial-relation queries ("the red circle left of the blue square") are
  built so the scene contains two objects with the *same* descriptor and only
  the relation to a uniquely named anchor disambiguates the target.  The
  generator proves uniqueness by enumerating every descriptor match.

Splits are disjoint by construction (the split id is folded into the seed).
The detector-pretraining split mixes plain category phrases with
relation-decorated phrases whose target is already unique, so the text
encoder sees relation words without ever needing them for disambiguation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import UsageError

CANVAS = 32

COLORS = ["red", "green", "blue", "yellow"]
SHAPES = ["circle", "square", "triangle"]
RELATIONS = ["left", "right", "above", "below"]

_RGB = {
    "red": (0.90, 0.12, 0.12),
    "green": (0.10, 0.80, 0.18),
    "blue": (0.15, 0.25, 0.90),
    "yellow": (0.95, 0.85, 0.10),
}
_BG = (0.05, 0.05, 0.05)

# token ids are frozen; the tail of the table is reserved padding words
WORDS = (
    ["<pad>", "<bos>", "<eos>", "."]
    + COLORS + SHAPES + RELATIONS
    + ["the", "of", "is", "in", "a", "and", "top", "bottom", "there", "are",
       "one", "two", "three", "four", "things"]
)
VOCAB = 64
STOI = {w: i for i, w in enumerate(WORDS)}
PAD, BOS, EOS = STOI["<pad>"], STOI["<bos>"], STOI["<eos>"]

SPLITS = {"train": 0, "val-category": 1, "val-spatial": 2, "pretrain": 3}

MAX_CANDIDATES = 4            # the most objects, so candidates, in a scene
REL_MARGIN = 0.10
MIN_GAP = 0.27                # least distance between two object centres

# Static bound on the packed candidate-text width: at most MAX_CANDIDATES = 4
# candidates, of which one may be a relation phrase (8 tokens) and the rest
# category phrases (3 tokens), joined by "." separators -> 8 + 3*3 + 3 = 20.
# Training and evaluation pad every text batch to exactly this width so that
# chunked, cached, and naive passes see identical array shapes and therefore
# identical floating-point reduction orders (bit-for-bit reproducibility).
PACK_WIDTH = 20


def encode(words: list[str]) -> np.ndarray:
    return np.array([STOI[w] for w in words], dtype=np.intp)


def decode(ids) -> list[str]:
    return [WORDS[i] if i < len(WORDS) else f"<{i}>" for i in np.asarray(ids)]


@dataclass
class SceneObject:
    shape: str
    color: str
    box: np.ndarray  # (cx, cy, w, h), unit canvas

    @property
    def descriptor(self) -> tuple[str, str]:
        return (self.color, self.shape)


@dataclass
class Query:
    ids: np.ndarray
    target_box: np.ndarray
    kind: str  # "category" | "spatial"


@dataclass
class SyntheticScene:
    image: np.ndarray                 # [3, H, W]
    objects: list[SceneObject]
    caption: np.ndarray               # <bos> ... <eos>
    query: Query
    candidates: list[np.ndarray] = field(default_factory=list)
    gt_boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    gt_labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))


def relation_holds(obj: SceneObject, rel: str, anchor: SceneObject) -> bool:
    dx = obj.box[0] - anchor.box[0]
    dy = obj.box[1] - anchor.box[1]
    if rel == "left":
        return dx <= -REL_MARGIN
    if rel == "right":
        return dx >= REL_MARGIN
    if rel == "above":
        return dy <= -REL_MARGIN
    if rel == "below":
        return dy >= REL_MARGIN
    raise UsageError(f"unknown relation {rel!r}")


def spatial_matches(objects: list[SceneObject], descriptor: tuple[str, str],
                    rel: str, anchor: SceneObject) -> list[SceneObject]:
    """Every object with this descriptor satisfying the relation; the
    generator requires exactly one (the enumeration is the uniqueness proof)."""
    return [o for o in objects
            if o.descriptor == descriptor and o is not anchor
            and relation_holds(o, rel, anchor)]


# (y, x) of every pixel centre on the unit canvas, each [CANVAS, CANVAS]
_PIXEL_CENTRES = np.meshgrid((np.arange(CANVAS) + 0.5) / CANVAS,
                             (np.arange(CANVAS) + 0.5) / CANVAS, indexing="ij")


def render(objects: list[SceneObject]) -> np.ndarray:
    """Rasterize to [3, CANVAS, CANVAS] floats in [0, 1]."""
    img = np.empty((3, CANVAS, CANVAS))
    for c in range(3):
        img[c] = _BG[c]
    yy, xx = _PIXEL_CENTRES
    for obj in objects:
        cx, cy, w, h = obj.box
        r = w / 2
        if obj.shape == "circle":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        elif obj.shape == "square":
            mask = (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
        else:  # upward triangle inscribed in the box
            half = (yy - (cy - r)) / 2.0
            mask = (yy >= cy - r) & (yy <= cy + r) & (np.abs(xx - cx) <= half)
        col = _RGB[obj.color]
        for c in range(3):
            img[c][mask] = col[c]
    return img


def _sample_layout(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Non-overlapping boxes by rejection; restarts if a placement stalls.

    Each attempt takes one ``rng.random(3)`` call and scales it as
    ``Generator.uniform`` does (``lo + (hi - lo) * u``): the draws, and the
    generator's state after them, are bitwise those of three scalar
    ``uniform`` calls for radius, x and y."""
    while True:
        boxes: list[np.ndarray] = []
        ok = True
        for _ in range(count):
            for _attempt in range(40):
                u = rng.random(3)
                r = 0.09 + (0.13 - 0.09) * u[0]
                cx = 0.16 + (0.84 - 0.16) * u[1]
                cy = 0.16 + (0.84 - 0.16) * u[2]
                if all(np.hypot(cx - b[0], cy - b[1]) >= MIN_GAP for b in boxes):
                    boxes.append(np.array([cx, cy, 2 * r, 2 * r]))
                    break
            else:
                ok = False
                break
        if ok:
            return boxes


def _unique_descriptors(rng: np.random.Generator, count: int) -> list[tuple[str, str]]:
    all_desc = [(c, s) for c in COLORS for s in SHAPES]
    idx = rng.choice(len(all_desc), size=count, replace=False)
    return [all_desc[i] for i in idx]


def _caption(rng: np.random.Generator, objects: list[SceneObject]) -> np.ndarray:
    """Teach the LM object naming, coarse position, and pairwise relations.

    The caption is ``<bos>``, then one position sentence for each of up to
    two objects, then at most one relation sentence, then ``<eos>``::

        the <c> <s> in <top|bottom> <left|right> .
        the <A-color> <A-shape> of the <B-color> <B-shape> is <rel> .

    The relation sentence names A and B by descriptors that are unique in
    the scene, and A is <rel> of B at ``REL_MARGIN``.  Query phrases
    (``_spatial_phrase``) use the other order, "the <A> <rel> (of) the <B>".
    """
    words: list[str] = ["<bos>"]
    order = rng.permutation(len(objects))[: min(2, len(objects))]
    for i in order:
        o = objects[i]
        v = "top" if o.box[1] < 0.5 else "bottom"
        h = "left" if o.box[0] < 0.5 else "right"
        words += ["the", o.color, o.shape, "in", v, h, "."]
    uniq = [o for o in objects
            if sum(p.descriptor == o.descriptor for p in objects) == 1]
    pairs = [(a, b) for a in uniq for b in uniq if a is not b]
    rng.shuffle(pairs)
    for a, b in pairs:
        rels = [r for r in RELATIONS if relation_holds(a, r, b)]
        if rels:
            # both participants precede the relation word so the relation
            # token is predictable from the image at its slot (naming the
            # pair first removes the anchor-identity entropy)
            rel = rels[rng.integers(len(rels))]
            words += ["the", a.color, a.shape, "of", "the", b.color, b.shape,
                      "is", rel, "."]
            break
    words.append("<eos>")
    return encode(words)


def _category_phrase(o: SceneObject) -> np.ndarray:
    return encode(["the", o.color, o.shape])


def _spatial_phrase(desc: tuple[str, str], rel: str, anchor: SceneObject) -> np.ndarray:
    mid = ["of", "the"] if rel in ("left", "right") else ["the"]
    return encode(["the", desc[0], desc[1], rel] + mid + [anchor.color, anchor.shape])


def _make_unique_scene(rng: np.random.Generator, decorate: bool) -> SyntheticScene:
    """All descriptors unique: category queries are unambiguous.  With
    ``decorate`` one ground-truth phrase gains a redundant relation clause."""
    count = int(rng.integers(1, MAX_CANDIDATES + 1))
    boxes = _sample_layout(rng, count)
    descs = _unique_descriptors(rng, count)
    objects = [SceneObject(s, c, b) for (c, s), b in zip(descs, boxes)]
    candidates = [_category_phrase(o) for o in objects]
    decorated = False
    if decorate and count >= 2:
        order = rng.permutation(count)
        for i in order:
            o = objects[i]
            others = [a for a in objects if a is not o]
            anchor = others[rng.integers(len(others))]
            rels = [r for r in RELATIONS if relation_holds(o, r, anchor)]
            if rels:
                rel = rels[rng.integers(len(rels))]
                if len(spatial_matches(objects, o.descriptor, rel, anchor)) == 1:
                    candidates[i] = _spatial_phrase(o.descriptor, rel, anchor)
                    decorated = True
                    break
    qi = int(rng.integers(count))
    query = Query(candidates[qi].copy(), objects[qi].box.copy(), "category")
    return SyntheticScene(
        image=render(objects), objects=objects, caption=_caption(rng, objects),
        query=query, candidates=candidates,
        gt_boxes=np.stack([o.box for o in objects]),
        gt_labels=np.arange(count, dtype=np.intp))


def _make_spatial_scene(rng: np.random.Generator) -> SyntheticScene:
    """Duplicate-descriptor pair + unique anchor; only the relation picks the
    target.  Candidate pair straddles the anchor along the relation axis."""
    while True:
        rel = RELATIONS[rng.integers(len(RELATIONS))]
        with_distractor = rng.uniform() < 0.5
        count = 4 if with_distractor else 3
        boxes = _sample_layout(rng, count)
        anchor_box = boxes[2]
        axis = 0 if rel in ("left", "right") else 1
        lo = [b for b in boxes[:2] if b[axis] <= anchor_box[axis] - REL_MARGIN]
        hi = [b for b in boxes[:2] if b[axis] >= anchor_box[axis] + REL_MARGIN]
        if len(lo) != 1 or len(hi) != 1:
            continue
        descs = _unique_descriptors(rng, 3)
        dup, anchor_desc, extra_desc = descs[0], descs[1], descs[2]
        objects = [SceneObject(dup[1], dup[0], boxes[0]),
                   SceneObject(dup[1], dup[0], boxes[1]),
                   SceneObject(anchor_desc[1], anchor_desc[0], anchor_box)]
        if with_distractor:
            objects.append(SceneObject(extra_desc[1], extra_desc[0], boxes[3]))
        anchor = objects[2]
        hits = spatial_matches(objects, dup, rel, anchor)
        if len(hits) != 1:
            continue
        target = hits[0]
        query = Query(_spatial_phrase(dup, rel, anchor), target.box.copy(), "spatial")
        return SyntheticScene(
            image=render(objects), objects=objects,
            caption=_caption(rng, objects), query=query,
            candidates=[query.ids.copy()],
            gt_boxes=target.box.reshape(1, 4),
            gt_labels=np.zeros(1, dtype=np.intp))


def make_scene(seed: int, split: str, index: int) -> SyntheticScene:
    if split not in SPLITS:
        raise UsageError(f"unknown split {split!r}, expected one of {sorted(SPLITS)}")
    rng = np.random.default_rng([seed, SPLITS[split], index])
    if split == "val-spatial":
        return _make_spatial_scene(rng)
    if split == "val-category":
        return _make_unique_scene(rng, decorate=False)
    if split == "pretrain":
        return _make_unique_scene(rng, decorate=rng.uniform() < 0.5)
    # stage-3 training mixes spatial and category scenes evenly so the
    # adapter learns disambiguation without drifting the category behaviour
    if rng.uniform() < 0.5:
        return _make_spatial_scene(rng)
    return _make_unique_scene(rng, decorate=False)


def generate_scenes(seed: int, count: int, split: str) -> list[SyntheticScene]:
    if count < 1:
        raise UsageError("count must be >= 1")
    return [make_scene(seed, split, i) for i in range(count)]


def pad_token_rows(rows: list[np.ndarray], width: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id rows into [N, W] with a boolean valid mask;
    W is ``width``, or the longest row's length when ``width`` is None."""
    if width is None:
        width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), PAD, dtype=np.intp)
    valid = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        valid[i, : len(r)] = True
    return ids, valid


def box_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two (cx, cy, w, h) boxes."""
    ax0, ay0 = a[0] - a[2] / 2, a[1] - a[3] / 2
    ax1, ay1 = a[0] + a[2] / 2, a[1] + a[3] / 2
    bx0, by0 = b[0] - b[2] / 2, b[1] - b[3] / 2
    bx1, by1 = b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return float(inter / union) if union > 0 else 0.0
