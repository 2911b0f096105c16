"""Synthetic-scene generator: determinism, uniqueness guarantees, geometry."""

import numpy as np
import pytest

from fusedet import scenes as S
from fusedet.tensor import UsageError


def scene_fingerprint(scene):
    return (scene.image.tobytes(), scene.caption.tobytes(),
            scene.query.ids.tobytes(), scene.query.kind,
            tuple(c.tobytes() for c in scene.candidates),
            scene.gt_boxes.tobytes())


# -- independent oracles -----------------------------------------------------


def relation_oracle(box_a, rel, box_b, margin):
    """Hand-written re-derivation of the relation predicate."""
    if rel == "left":
        return box_a[0] <= box_b[0] - margin
    if rel == "right":
        return box_a[0] >= box_b[0] + margin
    if rel == "above":
        return box_a[1] <= box_b[1] - margin
    return box_a[1] >= box_b[1] + margin


def iou_oracle(a, b, grid=2048):
    """Monte-Carlo-free IoU on a fine pixel grid (slow, obviously right)."""
    def rasterize(box):
        x0, y0 = box[0] - box[2] / 2, box[1] - box[3] / 2
        x1, y1 = box[0] + box[2] / 2, box[1] + box[3] / 2
        xs = (np.arange(grid) + 0.5) / grid
        in_x = (xs >= x0) & (xs <= x1)
        in_y = (xs >= y0) & (xs <= y1)
        return in_x[None, :] & in_y[:, None]
    ra, rb = rasterize(a), rasterize(b)
    inter = np.count_nonzero(ra & rb)
    union = np.count_nonzero(ra | rb)
    return inter / union if union else 0.0


# -- vocabulary --------------------------------------------------------------


class TestVocabulary:
    def test_round_trip(self):
        words = ["the", "red", "circle", "left", "of", "the", "blue", "square"]
        assert S.decode(S.encode(words)) == words

    def test_token_table_is_frozen(self):
        assert S.WORDS[:4] == ["<pad>", "<bos>", "<eos>", "."]
        assert len(S.WORDS) <= S.VOCAB
        assert len(set(S.WORDS)) == len(S.WORDS)

    def test_unknown_word_rejected(self):
        with pytest.raises(KeyError):
            S.encode(["purple"])

    def test_pad_token_rows(self):
        rows = [np.array([5, 6]), np.array([7]), np.array([8, 9, 10])]
        ids, valid = S.pad_token_rows(rows)
        assert ids.shape == (3, 3) and valid.shape == (3, 3)
        assert ids[1, 0] == 7 and ids[1, 1] == S.PAD and ids[1, 2] == S.PAD
        assert valid.tolist() == [[True, True, False], [True, False, False],
                                  [True, True, True]]
        wide, wide_valid = S.pad_token_rows(rows, width=5)
        assert np.array_equal(wide[:, :3], ids)
        assert np.all(wide[:, 3:] == S.PAD) and not wide_valid[:, 3:].any()


# -- determinism and splits --------------------------------------------------


class TestDeterminism:
    def test_same_coordinates_same_scene(self):
        a = S.make_scene(3, "train", 17)
        b = S.make_scene(3, "train", 17)
        assert scene_fingerprint(a) == scene_fingerprint(b)

    @pytest.mark.parametrize("other", [(4, "train", 17), (3, "pretrain", 17),
                                       (3, "train", 18)])
    def test_any_coordinate_changes_the_scene(self, other):
        a = S.make_scene(3, "train", 17)
        b = S.make_scene(*other)
        assert scene_fingerprint(a) != scene_fingerprint(b)

    def test_generate_scenes_matches_make_scene(self):
        batch = S.generate_scenes(5, 4, "val-spatial")
        singles = [S.make_scene(5, "val-spatial", i) for i in range(4)]
        for a, b in zip(batch, singles):
            assert scene_fingerprint(a) == scene_fingerprint(b)

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            S.generate_scenes(0, 0, "train")
        with pytest.raises(UsageError):
            S.make_scene(0, "test-time", 0)


# -- layout draws ------------------------------------------------------------

LAYOUT_BOUNDS = ((0.09, 0.13), (0.16, 0.84), (0.16, 0.84))   # r, cx, cy


def scalar_layout(rng, count):
    """``_sample_layout`` as first written, one ``uniform`` call a draw: the
    reference its one-call-per-attempt form must equal."""
    while True:
        boxes = []
        ok = True
        for _ in range(count):
            for _attempt in range(40):
                r = rng.uniform(0.09, 0.13)
                cx = rng.uniform(0.16, 0.84)
                cy = rng.uniform(0.16, 0.84)
                if all(np.hypot(cx - b[0], cy - b[1]) >= S.MIN_GAP
                       for b in boxes):
                    boxes.append(np.array([cx, cy, 2 * r, 2 * r]))
                    break
            else:
                ok = False
                break
        if ok:
            return boxes


class TestLayoutDraws:
    """``Generator.uniform(lo, hi)`` is ``lo + (hi - lo) * random()``; a
    numpy that changes that formula fails here, not in a golden hash."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
    def test_one_random_call_is_three_uniform_draws(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [a.uniform(lo, hi) for _ in range(500)
                for lo, hi in LAYOUT_BOUNDS]
        got = []
        for _ in range(500):
            u = b.random(3)
            got += [lo + (hi - lo) * u[k]
                    for k, (lo, hi) in enumerate(LAYOUT_BOUNDS)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert b.bit_generator.state == a.bit_generator.state

    def test_layout_equals_the_scalar_draw_reference(self):
        for seed in range(300):
            count = 1 + seed % 4
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = np.stack(scalar_layout(a, count))
            got = np.stack(S._sample_layout(b, count))
            assert got.tobytes() == want.tobytes(), seed
            assert b.bit_generator.state == a.bit_generator.state, seed


# -- category scenes ---------------------------------------------------------


class TestCategoryScenes:
    def scenes(self, n=40, split="val-category"):
        return S.generate_scenes(11, n, split)

    def test_descriptors_unique(self):
        for scene in self.scenes():
            descs = [o.descriptor for o in scene.objects]
            assert len(set(descs)) == len(descs)

    def test_query_is_a_candidate_with_matching_box(self):
        for scene in self.scenes():
            hits = [j for j, c in enumerate(scene.candidates)
                    if np.array_equal(c, scene.query.ids)]
            assert len(hits) == 1
            assert np.array_equal(scene.gt_boxes[hits[0]], scene.query.target_box)
            assert scene.query.kind == "category"

    def test_one_candidate_per_object(self):
        for scene in self.scenes():
            assert len(scene.candidates) == len(scene.objects)
            assert scene.gt_boxes.shape == (len(scene.objects), 4)
            assert scene.gt_labels.tolist() == list(range(len(scene.objects)))

    def test_pretrain_decoration_keeps_reference_unique(self):
        decorated = 0
        for scene in S.generate_scenes(11, 120, "pretrain"):
            for j, cand in enumerate(scene.candidates):
                if len(cand) <= 3:
                    continue
                decorated += 1
                words = S.decode(cand)
                rel = words[3]
                assert rel in S.RELATIONS
                target = scene.objects[j]
                assert (words[1], words[2]) == target.descriptor
                anchor_desc = (words[-2], words[-1])
                anchors = [o for o in scene.objects if o.descriptor == anchor_desc]
                assert len(anchors) == 1
                matches = [o for o in scene.objects
                           if o.descriptor == target.descriptor
                           and relation_oracle(o.box, rel, anchors[0].box,
                                               S.REL_MARGIN)]
                assert matches == [target]
        # about half the pretrain split carries a relation-decorated phrase
        assert decorated > 25


# -- spatial scenes ----------------------------------------------------------


class TestSpatialScenes:
    def scenes(self, n=60):
        return S.generate_scenes(13, n, "val-spatial")

    def test_single_candidate_is_the_query(self):
        for scene in self.scenes():
            assert len(scene.candidates) == 1
            assert np.array_equal(scene.candidates[0], scene.query.ids)
            assert scene.query.kind == "spatial"

    def test_duplicate_pair_and_unique_anchor(self):
        for scene in self.scenes():
            words = S.decode(scene.query.ids)
            target_desc = (words[1], words[2])
            dupes = [o for o in scene.objects if o.descriptor == target_desc]
            assert len(dupes) == 2
            anchor_desc = (words[-2], words[-1])
            anchors = [o for o in scene.objects if o.descriptor == anchor_desc]
            assert len(anchors) == 1

    def test_relation_resolves_to_exactly_one_object(self):
        for scene in self.scenes():
            words = S.decode(scene.query.ids)
            target_desc, rel = (words[1], words[2]), words[3]
            anchor = [o for o in scene.objects
                      if o.descriptor == (words[-2], words[-1])][0]
            matches = [o for o in scene.objects
                       if o.descriptor == target_desc
                       and relation_oracle(o.box, rel, anchor.box, S.REL_MARGIN)]
            assert len(matches) == 1
            assert np.array_equal(matches[0].box, scene.query.target_box)
            assert scene.gt_boxes.shape == (1, 4)
            assert np.array_equal(scene.gt_boxes[0], scene.query.target_box)

    def test_pair_straddles_anchor(self):
        """The non-target duplicate must fail the relation by a full margin on
        the relation axis (not just barely)."""
        for scene in self.scenes():
            words = S.decode(scene.query.ids)
            rel = words[3]
            axis = 0 if rel in ("left", "right") else 1
            anchor = [o for o in scene.objects
                      if o.descriptor == (words[-2], words[-1])][0]
            dupes = [o for o in scene.objects
                     if o.descriptor == (words[1], words[2])]
            offsets = sorted(o.box[axis] - anchor.box[axis] for o in dupes)
            assert offsets[0] <= -S.REL_MARGIN
            assert offsets[1] >= S.REL_MARGIN

    def test_train_split_mixes_kinds(self):
        kinds = [s.query.kind for s in S.generate_scenes(2, 400, "train")]
        frac = kinds.count("spatial") / len(kinds)
        assert 0.40 < frac < 0.60


# -- geometry ----------------------------------------------------------------


class TestRelationPredicate:
    def test_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = S.SceneObject("circle", "red", rng.uniform(0, 1, 4))
            b = S.SceneObject("square", "blue", rng.uniform(0, 1, 4))
            for rel in S.RELATIONS:
                assert S.relation_holds(a, rel, b) == \
                    relation_oracle(a.box, rel, b.box, S.REL_MARGIN)

    def test_margin_boundary(self):
        a = S.SceneObject("circle", "red", np.array([0.39, 0.5, 0.2, 0.2]))
        b = S.SceneObject("square", "blue", np.array([0.5, 0.5, 0.2, 0.2]))
        assert S.relation_holds(a, "left", b)          # 0.11 past, margin 0.10
        a.box[0] = 0.41                                # only 0.09 past
        assert not S.relation_holds(a, "left", b)


class TestBoxIou:
    def test_identical(self):
        b = np.array([0.3, 0.4, 0.2, 0.3])
        assert S.box_iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert S.box_iou(np.array([0.2, 0.2, 0.2, 0.2]),
                         np.array([0.8, 0.8, 0.2, 0.2])) == 0.0

    def test_hand_case(self):
        # unit squares offset by half a side: inter 0.5, union 1.5
        a = np.array([0.4, 0.5, 0.2, 0.2])
        b = np.array([0.5, 0.5, 0.2, 0.2])
        assert S.box_iou(a, b) == pytest.approx((0.1 * 0.2) / (0.06))

    def test_against_raster_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = np.r_[rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.4, 2)]
            b = np.r_[rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.4, 2)]
            assert S.box_iou(a, b) == pytest.approx(iou_oracle(a, b), abs=5e-3)


class TestRendering:
    def test_image_shape_and_range(self):
        scene = S.make_scene(0, "train", 0)
        assert scene.image.shape == (3, S.CANVAS, S.CANVAS)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_object_centers_carry_their_color(self):
        for scene in S.generate_scenes(7, 20, "val-category"):
            for o in scene.objects:
                px = int(o.box[0] * S.CANVAS)
                py = int(o.box[1] * S.CANVAS)
                got = scene.image[:, py, px]
                want = np.array(S._RGB[o.color])
                assert np.allclose(got, want)

    def test_corners_are_background(self):
        scene = S.make_scene(0, "train", 3)
        for py, px in ((0, 0), (0, S.CANVAS - 1), (S.CANVAS - 1, 0)):
            assert np.allclose(scene.image[:, py, px], 0.05)

    def test_objects_do_not_overlap(self):
        """Pairwise center distance respects the layout's minimum gap."""
        for scene in S.generate_scenes(9, 30, "train"):
            boxes = [o.box for o in scene.objects]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    d = np.hypot(boxes[i][0] - boxes[j][0],
                                 boxes[i][1] - boxes[j][1])
                    assert d >= 0.27 - 1e-12


class TestCaptions:
    def test_frame_tokens(self):
        for scene in S.generate_scenes(21, 30, "pretrain"):
            words = S.decode(scene.caption)
            assert words[0] == "<bos>" and words[-1] == "<eos>"
            assert "<pad>" not in words

    def test_position_words_are_correct(self):
        seen = 0
        for scene in S.generate_scenes(23, 40, "pretrain"):
            words = S.decode(scene.caption)
            for k, w in enumerate(words):
                if w == "in":  # "the <color> <shape> in <v> <h> ."
                    seen += 1
                    assert words[k - 3] == "the" and words[k + 3] == "."
                    color, shape = words[k - 2], words[k - 1]
                    v, h = words[k + 1], words[k + 2]
                    obj = [o for o in scene.objects
                           if o.descriptor == (color, shape)]
                    assert len(obj) == 1
                    assert v == ("top" if obj[0].box[1] < 0.5 else "bottom")
                    assert h == ("left" if obj[0].box[0] < 0.5 else "right")
        # every caption places at least one object
        assert seen >= 40

    def test_relation_sentence_is_true_and_unambiguous(self):
        # "the <A-color> <A-shape> of the <B-color> <B-shape> is <rel> ."
        # (the caption order documented on scenes._caption, not the
        # "the <A> <rel> (of) the <B>" order of query phrases)
        seen = 0
        for scene in S.generate_scenes(25, 40, "pretrain"):
            words = S.decode(scene.caption)
            rel_slots = set()
            for k, w in enumerate(words):
                if w != "is":
                    continue
                sentence = words[k - 7:k + 3]
                assert k >= 7 and len(sentence) == 10, f"truncated: {words}"
                (the_a, a_color, a_shape, of, the_b,
                 b_color, b_shape, _, rel, stop) = sentence
                assert (the_a, of, the_b, stop) == ("the", "of", "the", "."), \
                    f"not a relation sentence: {sentence}"
                assert rel in S.RELATIONS, f"no relation after 'is': {sentence}"
                seen += 1
                rel_slots.add(k + 1)
                a = [o for o in scene.objects if o.descriptor == (a_color, a_shape)]
                b = [o for o in scene.objects if o.descriptor == (b_color, b_shape)]
                assert len(a) == 1 and len(b) == 1
                assert relation_oracle(a[0].box, rel, b[0].box, S.REL_MARGIN)
            # every relation word is either a coarse position ("in top right")
            # or the relation slot checked above
            for k, w in enumerate(words):
                if w in S.RELATIONS:
                    coarse = (w in ("left", "right")
                              and words[k - 1] in ("top", "bottom"))
                    assert coarse or k in rel_slots, f"unchecked {w!r} in {words}"
        assert seen > 10
