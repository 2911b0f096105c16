"""Grounding detector: text packing/pooling, matching (against brute force),
the detection loss, evaluation, and the substitution control."""

from itertools import permutations

import numpy as np
import pytest

from fusedet import detector
from fusedet import tensor as T
from fusedet.detector import (BOX_WEIGHT, DetectorConfig, GroundingDetector,
                              SubstitutionHead, detection_loss, eval_grounding,
                              match_hungarian, pack_candidates, pool_phrases,
                              query_column, substitution_index)
from fusedet.layers import MultiHeadAttention
from fusedet.mllm import MllmConfig
from fusedet.scenes import (PACK_WIDTH, PAD, SyntheticScene, encode,
                            generate_scenes)
from fusedet.tensor import UsageError
from fusedet.verify import CASES, GRADCHECK_TOL, check_case


def make_detector(seed=0, **kw):
    """A detector over the default LM's 8x8 grid of 48-wide patch tokens."""
    cfg = DetectorConfig(**kw)
    return GroundingDetector(cfg, MllmConfig(),
                             np.random.default_rng(seed)), cfg


def rand_patches(rng, b=2):
    return rng.standard_normal((b, 64, 48))


# -- text encoding -----------------------------------------------------------


class TestPackCandidates:
    def test_separator_layout(self):
        cands = [[encode(["the", "red", "circle"]),
                  encode(["the", "blue", "square"])]]
        ids, valid, spans = pack_candidates(cands)
        dot = int(encode(["."])[0])
        assert ids[0, :7].tolist() == (
            encode(["the", "red", "circle"]).tolist() + [dot]
            + encode(["the", "blue", "square"]).tolist())
        assert valid[0, :7].all() and not valid[0, 7:].any()
        assert spans[0] == [(0, 3), (4, 7)]

    def test_batch_padding(self):
        cands = [[encode(["the", "red", "circle"])],
                 [encode(["the", "blue", "square"]),
                  encode(["the", "green", "triangle"])]]
        ids, valid, spans = pack_candidates(cands)
        assert ids.shape == valid.shape == (2, PACK_WIDTH)
        assert valid[0].sum() == 3 and valid[1].sum() == 7
        assert np.all(ids[0][3:] == PAD) and np.all(ids[1][7:] == PAD)

    def test_spans_address_their_phrases(self):
        cands = [[encode(["the", "red", "circle"]),
                  encode(["the", "blue", "square", "left", "of", "the",
                          "green", "circle"])]]
        ids, valid, spans = pack_candidates(cands)
        for (lo, hi), phrase in zip(spans[0], cands[0]):
            assert ids[0, lo:hi].tolist() == phrase.tolist()

    def test_fixed_width_padding(self):
        cands = [[encode(["the", "red", "circle"])]]
        ids, valid, spans = pack_candidates(cands)
        assert ids.shape == valid.shape == (1, PACK_WIDTH)
        assert valid[0].sum() == 3 and np.all(ids[0][3:] == PAD)
        assert spans[0] == [(0, 3)]

    def test_fixed_width_too_small(self):
        relation = encode(["the", "red", "circle", "left", "of", "the",
                           "blue", "square"])
        with pytest.raises(UsageError, match="pack width"):
            pack_candidates([[relation] * 3])          # 26 tokens

    def test_generated_scenes_fit_the_static_width(self):
        scenes = generate_scenes(0, 300, "pretrain") + \
            generate_scenes(0, 100, "train")
        ids, _, _ = pack_candidates([s.candidates for s in scenes])
        assert ids.shape[1] == PACK_WIDTH


class TestTextEncoder:
    def test_shapes(self):
        det, cfg = make_detector()
        ids, valid, _ = pack_candidates([[encode(["the", "red", "circle"])]])
        e = det.encode_text(ids, valid)
        assert e.shape == (1, ids.shape[1], cfg.d)

    def test_padding_is_inert(self):
        det, _ = make_detector()
        ids = np.array([[4, 5, 6, PAD, PAD]])
        valid = np.array([[True, True, True, False, False]])
        base = det.encode_text(ids, valid).data
        ids2 = np.array([[4, 5, 6, 9, 9]])
        again = det.encode_text(ids2, valid).data
        assert np.allclose(base[:, :3], again[:, :3])


class TestPoolPhrases:
    def test_mean_over_spans(self):
        det, cfg = make_detector()
        cands = [[encode(["the", "red", "circle"]),
                  encode(["the", "blue", "square"])]]
        ids, valid, spans = pack_candidates(cands)
        e = det.encode_text(ids, valid)
        pooled = pool_phrases(e, spans, 2)
        assert np.allclose(pooled.data[0, 0], e.data[0, 0:3].mean(0))
        assert np.allclose(pooled.data[0, 1], e.data[0, 4:7].mean(0))

    def test_padded_candidate_rows_are_zero(self):
        det, cfg = make_detector()
        cands = [[encode(["the", "red", "circle"])]]
        ids, valid, spans = pack_candidates(cands)
        pooled = pool_phrases(det.encode_text(ids, valid), spans, 3)
        assert pooled.shape == (1, 3, cfg.d)
        assert np.all(pooled.data[0, 1:] == 0.0)


# -- decoding ----------------------------------------------------------------


class TestParameters:
    def test_cross_attention_keeps_the_mha_parameters(self, monkeypatch):
        """The decoder's vision and text attention carry exactly the
        parameters ``MultiHeadAttention`` would, drawn in the same order:
        same names, shapes and initial values, so run directories saved
        before they absorbed their key and value maps still load."""
        det, cfg = make_detector()
        monkeypatch.setattr(detector, "MemoryAttention", MultiHeadAttention)
        want = GroundingDetector(cfg, MllmConfig(), np.random.default_rng(0))
        got = det.named_parameters()
        assert list(got) == list(want.named_parameters())
        for name, p in want.named_parameters().items():
            assert got[name].data.tobytes() == p.data.tobytes(), name
        assert "layers.5.vis_attn.wk.weight" in got


class TestDecode:
    def setup_inputs(self, det, b=2):
        rng = np.random.default_rng(42)
        e_vis = det.encode_vision(T.constant(rand_patches(rng, b)))
        cands = [[encode(["the", "red", "circle"])] for _ in range(b)]
        ids, valid, spans = pack_candidates(cands)
        e_txt = det.encode_text(ids, valid)
        return e_vis, e_txt, valid

    def test_output_shape(self):
        det, cfg = make_detector()
        e_vis, e_txt, valid = self.setup_inputs(det)
        q = det.decode(e_vis, e_txt, valid)
        assert q.shape == (2, cfg.queries, cfg.d)

    def test_resume_matches_full_run(self):
        """Restarting from a stopped mid-stack state reproduces the full
        decode bit for bit (the cache-path guarantee)."""
        det, _ = make_detector()
        e_vis, e_txt, valid = self.setup_inputs(det)
        full = det.decode(e_vis, e_txt, valid)
        for layer in (2, 4, 6):
            state = det.decode(e_vis, e_txt, valid, upto_layer=layer - 1)
            resumed = det.decode(e_vis, e_txt, valid,
                                 start_state=T.constant(state.data),
                                 start_layer=layer)
            assert np.array_equal(resumed.data, full.data)

    def test_resume_needs_state(self):
        det, _ = make_detector()
        e_vis, e_txt, valid = self.setup_inputs(det)
        with pytest.raises(UsageError):
            det.decode(e_vis, e_txt, valid, start_layer=3)

    def test_boxes_live_in_unit_interval(self):
        det, _ = make_detector()
        e_vis, e_txt, valid = self.setup_inputs(det)
        boxes = det.boxes(det.decode(e_vis, e_txt, valid))
        assert np.all(boxes.data > 0.0) and np.all(boxes.data < 1.0)

    def test_phrase_logits_formula(self):
        det, cfg = make_detector()
        rng = np.random.default_rng(3)
        q = rng.standard_normal((1, cfg.queries, cfg.d))
        pooled = rng.standard_normal((1, 3, cfg.d))
        got = det.phrase_logits(T.constant(q), T.constant(pooled))
        proj = q @ det.class_proj.weight.data + det.class_proj.bias.data
        want = proj @ pooled[0].T / np.sqrt(cfg.d)
        bg = proj @ det.bg_embed.data / np.sqrt(cfg.d)
        assert got.shape == (1, cfg.queries, 4)
        assert np.allclose(got.data[0, :, :3], want[0])
        assert np.allclose(got.data[0, :, 3], bg[0])


# -- matching ----------------------------------------------------------------


def match_bruteforce(costs: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Enumerate every injective assignment; the oracle for small Q, G."""
    q, g = costs.shape
    best, best_cost = None, np.inf
    for perm in permutations(range(q), g):
        c = sum(costs[perm[j], j] for j in range(g))
        if c < best_cost - 1e-15:
            best_cost = c
            best = [(perm[j], j) for j in range(g)]
    return best, float(best_cost)


class TestMatching:
    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = int(rng.integers(1, 5))
            g = int(rng.integers(1, q + 1))
            costs = rng.uniform(0, 10, (q, g))
            fast = match_hungarian(costs)
            slow, slow_cost = match_bruteforce(costs)
            fast_cost = sum(costs[i, j] for i, j in fast)
            assert fast_cost == pytest.approx(slow_cost, abs=1e-12)
            assert fast == slow

    def test_known_assignment(self):
        costs = np.array([[9.0, 1.0], [1.0, 9.0], [5.0, 5.0]])
        assert match_hungarian(costs) == [(1, 0), (0, 1)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            match_hungarian(np.zeros((2, 2, 2)))
        with pytest.raises(UsageError):
            match_hungarian(np.zeros((2, 3)))      # more gt than queries
        with pytest.raises(UsageError):
            match_hungarian(np.array([[np.inf, 1.0]]))


# -- the loss ----------------------------------------------------------------


def perfect_outputs(scene: SyntheticScene, cfg: DetectorConfig):
    """Box/logit tensors that solve a scene exactly."""
    nq, c = cfg.queries, len(scene.candidates)
    boxes = np.full((1, nq, 4), 0.9)
    logits = np.full((1, nq, c + 1), -40.0)
    g = len(scene.gt_labels)
    for k in range(nq):
        if k < g:
            boxes[0, k] = scene.gt_boxes[k]
            logits[0, k, scene.gt_labels[k]] = 40.0
        else:
            logits[0, k, c] = 40.0
    return T.constant(boxes), T.constant(logits)


class TestDetectionLoss:
    def scene(self, i=0):
        return generate_scenes(31, i + 1, "val-category")[i]

    def test_perfect_prediction_is_near_zero(self):
        _, cfg = make_detector()
        scene = self.scene()
        boxes, logits = perfect_outputs(scene, cfg)
        loss = detection_loss(boxes, logits, [scene])
        assert float(loss.data) < 1e-10

    def test_query_slot_permutation_invariance(self):
        """The Hungarian step makes the loss independent of slot order."""
        det, cfg = make_detector()
        scene = self.scene(0)
        rng = np.random.default_rng(6)
        boxes = rng.uniform(0.2, 0.8, (1, cfg.queries, 4))
        logits = rng.standard_normal((1, cfg.queries, len(scene.candidates) + 1))
        base = detection_loss(T.constant(boxes), T.constant(logits), [scene])
        perm = np.array([2, 0, 3, 1])
        again = detection_loss(T.constant(boxes[:, perm]),
                               T.constant(logits[:, perm]), [scene])
        assert float(base.data) == pytest.approx(float(again.data), rel=1e-12)

    def test_box_error_raises_loss(self):
        _, cfg = make_detector()
        scene = self.scene()
        boxes, logits = perfect_outputs(scene, cfg)
        worse = boxes.data.copy()
        worse[0, 0, :2] += 0.2
        a = detection_loss(boxes, logits, [scene])
        b = detection_loss(T.constant(worse), logits, [scene])
        assert float(b.data) > float(a.data) + 0.5

    def test_padded_columns_do_not_matter(self):
        det, cfg = make_detector()
        scene = self.scene()
        rng = np.random.default_rng(7)
        c = len(scene.candidates)
        boxes = rng.uniform(0.2, 0.8, (1, cfg.queries, 4))
        logits = rng.standard_normal((1, cfg.queries, c + 3))
        base = detection_loss(T.constant(boxes), T.constant(logits), [scene])
        polluted = logits.copy()
        polluted[:, :, c:-1] = 1e3          # garbage in the padding columns
        again = detection_loss(T.constant(boxes), T.constant(polluted),
                               [scene])
        assert float(base.data) == pytest.approx(float(again.data), rel=1e-12)

    def test_loss_weights_scale_their_terms(self):
        """Moving one matched box by delta along one coordinate keeps the
        matching and adds ``BOX_WEIGHT`` * delta to the loss."""
        _, cfg = make_detector()
        scene = self.scene()
        boxes, logits = perfect_outputs(scene, cfg)
        delta = 0.1
        moved = boxes.data.copy()
        moved[0, 0, 0] += delta
        a = detection_loss(boxes, logits, [scene])
        b = detection_loss(T.constant(moved), logits, [scene])
        assert float(b.data) - float(a.data) == pytest.approx(
            BOX_WEIGHT * delta, rel=1e-9)

    def test_gradient(self):
        build = dict(CASES)["composed/detection-loss"]
        assert check_case(build, 0) < GRADCHECK_TOL


# -- evaluation --------------------------------------------------------------


class TestEvalGrounding:
    def test_query_column_lookup(self):
        for scene in generate_scenes(33, 20, "val-category"):
            col = query_column(scene)
            assert np.array_equal(scene.candidates[col], scene.query.ids)

    def test_hand_built_hit_and_miss(self):
        scene = generate_scenes(33, 1, "val-category")[0]
        col = query_column(scene)
        c = len(scene.candidates)
        nq = 4
        boxes = np.full((1, nq, 4), 0.05)
        logits = np.full((1, nq, c + 1), 0.0)
        boxes[0, 2] = scene.query.target_box
        logits[0, 2, col] = 30.0
        out = eval_grounding(boxes, logits, [scene])
        assert out["acc"] == 1.0
        assert out["per_scene"][0]["picked_query"] == 2
        assert out["per_scene"][0]["iou"] == pytest.approx(1.0)
        # same logits but the confident slot points at a wrong box
        boxes[0, 2] = (0.05, 0.05, 0.02, 0.02)
        out = eval_grounding(boxes, logits, [scene])
        assert out["acc"] == 0.0 and out["mean_iou"] < 0.1

    def test_threshold_monotonicity(self, monkeypatch):
        scenes = generate_scenes(35, 12, "val-category")
        rng = np.random.default_rng(9)
        nq, cmax = 4, max(len(s.candidates) for s in scenes)
        boxes = rng.uniform(0.2, 0.8, (12, nq, 4))
        logits = rng.standard_normal((12, nq, cmax + 1))
        accs = []
        for t in (0.1, 0.3, 0.5, 0.7):
            monkeypatch.setattr(detector, "IOU_THRESH", t)
            out = eval_grounding(boxes, logits, scenes)
            assert out["iou_thresh"] == t
            accs.append(out["acc"])
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_split_accounting(self):
        cat = generate_scenes(37, 6, "val-category")
        spa = generate_scenes(37, 6, "val-spatial")
        scenes = cat + spa
        nq, cmax = 4, max(len(s.candidates) for s in scenes)
        boxes = np.full((12, nq, 4), 0.5)
        logits = np.zeros((12, nq, cmax + 1))
        out = eval_grounding(boxes, logits, scenes)
        assert out["n_category"] == 6 and out["n_spatial"] == 6
        total = (out["acc_category"] * 6 + out["acc_spatial"] * 6) / 12
        assert out["acc"] == pytest.approx(total)


# -- substitution control ----------------------------------------------------


class TestSubstitution:
    def test_index_map_tiles_quadrants(self):
        idx = substitution_index((8, 8), 4)
        assert idx.shape == (64,)
        want = np.zeros((8, 8), dtype=int)
        want[:4, 4:] = 1
        want[4:, :4] = 2
        want[4:, 4:] = 3
        assert np.array_equal(idx.reshape(8, 8), want)

    def test_head_repeats_rows_per_quadrant(self):
        rng = np.random.default_rng(10)
        head = SubstitutionHead(MllmConfig(shuffle_r=4), DetectorConfig(), rng)
        e = T.constant(rng.standard_normal((2, 4, 64)))
        out = head(e)
        assert out.shape == (2, 64, 64)
        grid = out.data[0].reshape(8, 8, 64)
        assert np.array_equal(grid[0, 0], grid[3, 3])     # same quadrant
        assert not np.allclose(grid[0, 0], grid[0, 7])    # different quadrant
