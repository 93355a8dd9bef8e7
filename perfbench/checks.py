"""Output checks for the benchmark's operations.

Each check reads what one relguide command wrote and compares it with a
computation made apart from the program (the float64 reference in
`refnet`) or with a property the method must have. Every function returns a
list of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import refnet

METRICS_HEADER = "epoch,loss,accuracy,f1_weighted,score_class0,score_class1"
METRICS_FLOOR = 1e-3  # the score floor of evaluate, explain and the metrics CSV
SCORE_RTOL = 1e-5  # CSV values round-trip float32 exactly; only summation order differs
CONSERVATION_RTOL = 1e-3  # of the relevance mass sum|R|: rounding grows with it, not with the net sum
# sum|R - R_ref| as a share of sum|R_ref|, after the fit of unresolved
# decisions below: after it, float32 maps differed from float64 by at most
# 9.3e-7 of it (2,400 maps, both losses, measured); without it two maps were
# off by 5.9e-3 and 6.6e-3, one from each kind of decision
RELEVANCE_RTOL = 1e-4
# Decisions float32 rounding may take the other way, as shares of the layer's
# mean |activation|: a hidden dense unit with |z| below UNRESOLVED_Z (seen:
# z = 2.4e-7 from terms summing to 7.4 in magnitude, where the epsilon rule's
# ratio z / (z + 1e-6 mean|z|) is anything in [0, 1]), and a max-pool window
# whose two largest inputs are closer than UNRESOLVED_POOL (seen: 1.5e-7)
UNRESOLVED_Z = 1e-3
UNRESOLVED_POOL = 1e-4
HIDDEN_DENSE = refnet.LAYERS.index("dense")
DISTANCE_RTOL = 1e-4  # float32 activations in the program against float64 here
MEAN_SCORE_ATOL = 1e-3  # float32 per-sample scores differ by up to 2e-4 (measured); means by far less
# of the tensor's largest gradient: float32 gradients through the relevance
# graph agree with float64 to about 1e-6 of it, but to 1% on samples whose
# score sits just above the floor (measured), where the stabilized ratios of
# near-zero contributions amplify rounding
GRAD_TOL = 0.05
FD_STEP = 1e-5


def _near_tie(logits) -> bool:
    """Two logits so close that float32 rounding may decide the argmax."""
    top = np.sort(logits)[-2:]
    return top[1] - top[0] <= 1e-5 * np.abs(top).sum() + 1e-6


def _close(got, want, rtol, atol=0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_training(outs: list, epochs: int) -> list:
    """Runs of one seed: sane per-epoch metrics and bit-identical weights."""
    errors = []
    for out in outs:
        with open(os.path.join(out, "metrics.csv")) as f:
            lines = f.read().split()
        if lines[0] != METRICS_HEADER or len(lines) != epochs + 1:
            errors.append(f"{out}: metrics.csv has header {lines[0]!r} and {len(lines) - 1} epochs")
            continue
        for line in lines[1:]:
            epoch, loss, *rates = (float(v) for v in line.split(","))
            if not (math.isfinite(loss) and loss > 0):
                errors.append(f"{out}: epoch {epoch:g} loss {loss}")
            if not all(0.0 <= v <= 1.0 for v in rates):
                errors.append(f"{out}: epoch {epoch:g} accuracy/F1/scores {rates} out of [0, 1]")
    weights = []
    for out in outs:
        with open(os.path.join(out, "weights.rgtw"), "rb") as f:
            weights.append(f.read())
    for out, w in zip(outs[1:], weights[1:]):
        if w != weights[0]:
            errors.append(f"{outs[0]} and {out}: same seed, different weights")
    return errors


def adam_first_step_gradient(before: dict, after: dict, lr: float, adam_eps: float) -> dict:
    """The gradient behind one bias-corrected Adam step from zero moments.

    That step moves every parameter by ``lr * g / (|g| + eps)``, so
    ``u = (before - after) / lr`` gives ``g = eps * u / (1 - |u|)``.
    """
    grads = {}
    for name in before:
        u = (before[name].astype(np.float64) - after[name].astype(np.float64)) / lr
        grads[name] = adam_eps * u / (1.0 - np.abs(u))
    return grads


def check_gradient(grads: dict, params: dict, sample, power: float, floor: float,
                   rng: np.random.Generator) -> list:
    """The program's gradient of the guided loss (``power`` 0: plain
    cross-entropy) for one sample against central differences of the float64
    reference, on one entry of each weight tensor whose perturbation crosses
    no ReLU, max-pool, sign or clamp decision."""
    image, lesion, obj, label = sample

    def loss(p):
        return refnet.guided_loss(p, image, lesion, obj, label, power, floor)

    _, state = loss(params)
    errors, checked = [], 0
    for name in sorted(n for n in params if n.endswith(".weight")):
        g = grads[name].ravel()
        theta = params[name].ravel()
        # entries of at least a tenth of the largest gradient, so the
        # tolerance stays below half of the entry; |theta| >= 2h keeps
        # w+ = max(w, 0) smooth
        scale = float(np.abs(g).max())
        cand = np.flatnonzero((np.abs(g) >= 0.1 * scale) & (np.abs(theta) >= 2 * FD_STEP))
        for e in rng.permutation(cand)[:8]:
            ends = []
            for step in (FD_STEP, -FD_STEP):
                p = dict(params)
                p[name] = params[name].copy()
                p[name].ravel()[e] += step
                ends.append(loss(p))
            if not all(np.array_equal(a, b) for end in ends for a, b in zip(state, end[1])):
                continue
            fd = (ends[0][0] - ends[1][0]) / (2 * FD_STEP)
            if not _close(float(g[e]), fd, 0.0, GRAD_TOL * scale):
                errors.append(f"gradient of {name}[{e}]: program {g[e]:.9g}, central difference {fd:.9g}")
            checked += 1
            break
    if checked < 4:
        errors.append(f"only {checked} smooth parameter entries found for the gradient check")
    return errors


# ---------------------------------------------------------------------------
# evaluate and explain
# ---------------------------------------------------------------------------

def _relevance(params, ds, chunk=50):
    """Reference logits and true-class channel-summed input relevance maps
    of every sample."""
    logits, maps = [], []
    for lo in range(0, len(ds), chunk):
        acts, pool_idx = refnet.forward(params, ds.images[lo : lo + chunk])
        maps.append(refnet.input_relevance(params, acts, pool_idx, ds.labels[lo : lo + chunk]).sum(axis=1))
        logits.append(acts[-1])
    return np.concatenate(logits), np.concatenate(maps)


def _logits(params, ds, i):
    return refnet.forward(params, ds.images[i : i + 1])[0][-1][0]


def _maps_below(params: dict, acts, pool_idx, rs, top: int) -> np.ndarray:
    """Channel-summed input maps of the relevance tensors `rs` on `acts[top]`
    of one sample, one flattened row each."""
    tiled = [np.repeat(a, len(rs), axis=0) for a in acts]
    pools = {k: np.repeat(v, len(rs), axis=0) for k, v in pool_idx.items()}
    return refnet.relevance_below(params, tiled, pools, rs, top).sum(axis=1).reshape(len(rs), -1)


def _unresolved(params: dict, acts, pool_idx, r_top):
    """The input-map changes of the decisions float32 may take the other
    way, one row each, and the range of each one's coefficient.

    Below a decision the rule is linear, so each gives one direction: an
    unresolved hidden dense unit j passes on between 0 and all of the g_j it
    would pass at ratio 1; an unresolved max-pool window sends its relevance
    to either of its two largest inputs.
    """
    dirs, lo, hi = [], [], []
    z = acts[HIDDEN_DENSE + 1][0]
    units = np.flatnonzero(np.abs(z) < UNRESOLVED_Z * np.abs(z).mean())
    if len(units):
        top = HIDDEN_DENSE + 2  # the dense layer above the ReLU
        g = (refnet.dense_ratio(r_top, acts[-1]) @ params[f"layer{top}.weight"])[0, units]
        zu = z[units]
        rho = np.maximum(zu, 0) / (zu + refnet.EPS_SCALE * np.abs(z).mean() * np.where(zu >= 0, 1.0, -1.0))
        rs = g[:, None] * acts[HIDDEN_DENSE] * params[f"layer{HIDDEN_DENSE}.weight"][units]
        dirs.append(_maps_below(params, acts, pool_idx, rs, HIDDEN_DENSE))
        lo.append(-rho)
        hi.append(1 - rho)
    for li in (i for i, kind in enumerate(refnet.LAYERS) if kind == "pool"):
        a = acts[li][0]
        c, h, w = a.shape
        win = a.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h // 2, w // 2, 4)
        order = np.argsort(-win, axis=-1, kind="stable")
        top2 = np.take_along_axis(win, order[..., :2], axis=-1)
        r_out = refnet.relevance_below(params, acts, pool_idx, r_top, len(refnet.LAYERS), li + 1)[0]
        cand = np.argwhere((top2[..., 0] - top2[..., 1] < UNRESOLVED_POOL * np.abs(a).mean()) & (r_out != 0))
        if not len(cand):
            continue
        rs = np.zeros((len(cand), c, h, w))
        for n, (ch, y, x) in enumerate(cand):
            chosen, other = pool_idx[li][0, ch, y, x], order[ch, y, x, 1]
            if other == chosen:
                other = order[ch, y, x, 0]
            rs[n, ch, 2 * y + chosen // 2, 2 * x + chosen % 2] = -r_out[ch, y, x]
            rs[n, ch, 2 * y + other // 2, 2 * x + other % 2] = r_out[ch, y, x]
        dirs.append(_maps_below(params, acts, pool_idx, rs, li))
        lo.append(np.zeros(len(cand)))
        hi.append(np.ones(len(cand)))
    if not dirs:
        return None
    return np.concatenate(dirs), np.concatenate(lo), np.concatenate(hi)


def relevance_off_reference(rel, params: dict, acts, pool_idx, target: int):
    """sum|R - R_ref| and sum|R_ref| for the channel-summed map `rel` of one
    sample (batch of one in `acts`), after the difference is fitted, within
    their ranges, along the decisions float32 may take the other way."""
    r_top = np.zeros_like(acts[-1])
    r_top[0, target] = acts[-1][0, target]
    ref = refnet.relevance_below(params, acts, pool_idx, r_top, len(refnet.LAYERS)).sum(axis=1)[0]
    diff = (rel - ref).ravel()
    unresolved = _unresolved(params, acts, pool_idx, r_top)
    if unresolved is not None:
        dirs, lo, hi = unresolved
        coef = np.clip(np.linalg.lstsq(dirs.T, diff, rcond=None)[0], lo, hi)
        diff = diff - coef @ dirs
    return float(np.abs(diff).sum()), float(np.abs(ref).sum())


def check_evaluate(outs: list, params: dict, ds) -> list:
    """Each evaluation.json against reference predictions and per-sample
    scores on every sample of the dataset."""
    logits, maps = _relevance(params, ds)
    preds = logits.argmax(axis=1)
    ties = sum(_near_tie(lg) for lg in logits)
    want = {"accuracy": float(np.mean(preds == ds.labels))}
    f1 = 0.0
    for c in (0, 1):
        tp = np.sum((preds == c) & (ds.labels == c))
        denom = 2 * tp + np.sum((preds == c) & (ds.labels != c)) + np.sum((preds != c) & (ds.labels == c))
        f1 += np.mean(ds.labels == c) * (2 * tp / denom if denom else 0.0)
        sel = np.flatnonzero(ds.labels == c)
        want[f"score_class{c}"] = float(np.mean([
            refnet.attention_score(maps[i], ds.lesion_masks[i], ds.object_masks[i], METRICS_FLOOR)
            for i in sel
        ])) if len(sel) else 0.0
    want["f1_weighted"] = f1
    errors = []
    for out in outs:
        with open(os.path.join(out, "evaluation.json")) as f:
            got = json.load(f)
        # a prediction float32 rounding may flip moves accuracy by 1/N and leaves F1 unchecked
        if abs(got["accuracy"] - want["accuracy"]) > ties / len(ds) + 1e-12 \
                or (ties == 0 and not _close(got["f1_weighted"], f1, 1e-9, 1e-12)):
            errors.append(f"{out}: accuracy {got['accuracy']} F1 {got['f1_weighted']}, "
                          f"reference {want['accuracy']} {f1} with {ties} near ties")
        for c in (0, 1):
            key = f"score_class{c}"
            if not _close(got[key], want[key], 0.0, MEAN_SCORE_ATOL):
                errors.append(f"{out}: {key} {got[key]} against {want[key]}")
    return errors


def read_heatmap(out: str, tag: str, target: int):
    base = os.path.join(out, f"heatmap_{tag}_class{target}")
    rel = np.loadtxt(base + ".csv", delimiter=",", ndmin=2)
    with open(base + ".pgm", "rb") as f:
        pgm = f.read()
    return rel, pgm


def check_explain(out: str, params: dict, ds, sample_id: int) -> list:
    """explain.json's labels against the reference prediction, each
    relevance CSV against the reference map for its target, each score
    against a direct sum over its CSV and the sample's masks, and each PGM
    against its CSV."""
    with open(os.path.join(out, "explain.json")) as f:
        got = json.load(f)
    i = ds.index_of(sample_id)
    acts, pool_idx = refnet.forward(params, ds.images[i : i + 1])
    logits = acts[-1][0]
    errors = []
    if got["sample_id"] != sample_id or got["true_label"] != ds.labels[i]:
        errors.append(f"{out}: sample {got['sample_id']} label {got['true_label']}")
    if got["predicted_label"] != logits.argmax() and not _near_tie(logits):
        errors.append(f"{out}: predicted {got['predicted_label']}, logits {logits}")
    for tag, target in (("pred", got["predicted_label"]), ("true", got["true_label"])):
        rel, pgm = read_heatmap(out, tag, target)
        h, w = ds.lesion_masks[i].shape
        if rel.shape != (h, w) or not np.isfinite(rel).all():
            errors.append(f"{out}: {tag} relevance CSV shape {rel.shape} or non-finite values")
            continue
        off, mass = relevance_off_reference(rel, params, acts, pool_idx, target)
        if not off <= RELEVANCE_RTOL * mass:
            errors.append(f"{out}: {tag} relevance CSV is off the reference map by {off:.9g} of sum|R| {mass:.9g}")
        want = refnet.attention_score(rel, ds.lesion_masks[i], ds.object_masks[i], METRICS_FLOOR)
        if not _close(got[f"score_{tag}"], want, SCORE_RTOL, 1e-9):
            errors.append(f"{out}: score_{tag} {got[f'score_{tag}']} against {want} from the CSV")
        pos = np.maximum(rel, 0)
        img = np.round(255.0 * pos / pos.max()) if pos.max() > 0 else np.zeros_like(pos)
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        pix = np.frombuffer(pgm[len(header):], dtype=np.uint8)
        if not pgm.startswith(header) or pix.size != h * w or np.abs(pix.reshape(h, w) - img).max() > 1:
            errors.append(f"{out}: {tag} PGM does not show the CSV's positive relevance")
    return errors


def check_conservation(out: str, bias_free: dict, ds, sample_id: int) -> list:
    """On bias-free weights every relevance map sums to its target logit."""
    with open(os.path.join(out, "explain.json")) as f:
        got = json.load(f)
    logits = _logits(bias_free, ds, ds.index_of(sample_id))
    errors = []
    for tag, target in (("pred", got["predicted_label"]), ("true", got["true_label"])):
        rel, _ = read_heatmap(out, tag, target)
        total, want = float(rel.sum()), float(logits[target])
        if not _close(total, want, 0.0, CONSERVATION_RTOL * float(np.abs(rel).sum())):
            errors.append(f"{out}: {tag} relevance sums to {total:.9g}, target logit {want:.9g}")
    return errors


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------

def atlas_embeddings(params: dict, ds, layer: int, chunk: int = 100) -> np.ndarray:
    return np.concatenate([
        refnet.embeddings(params, ds.images[lo : lo + chunk], layer)
        for lo in range(0, len(ds), chunk)
    ])


def check_retrieve(out: str, params: dict, atlas, emb: np.ndarray, query_id: int, k: int, layer: int) -> list:
    """neighbors.json against exact kNN over the reference embeddings (ties
    to the smaller id), credibility against the neighbour labels, and each
    BiLRP JSON's similarity and coverage against the two embeddings."""
    with open(os.path.join(out, "neighbors.json")) as f:
        got = json.load(f)
    q = atlas.index_of(query_id)
    dist = np.sqrt(((emb - emb[q]) ** 2).sum(axis=1))
    tol = DISTANCE_RTOL * dist.max()
    want_rows = np.lexsort((atlas.ids, dist))[:k]
    nb = got["neighbors"]
    ids = [n["id"] for n in nb]
    rows = [atlas.index_of(i) for i in ids]
    errors = []
    if (got["query_id"], got["layer"], got["k"], len(nb)) != (query_id, layer, k, k):
        errors.append(f"{out}: query {got['query_id']} layer {got['layer']} k {got['k']}, {len(nb)} neighbours")
        return errors
    # exact agreement up to distances float32 rounding can reorder
    if any(abs(dist[r] - dist[w]) > tol for r, w in zip(rows, want_rows)):
        errors.append(f"{out}: neighbours {ids}, exact kNN {atlas.ids[want_rows].tolist()}")
    for n, r in zip(nb, rows):
        if not _close(n["distance"], dist[r], DISTANCE_RTOL, tol) or n["label"] != atlas.labels[r]:
            errors.append(f"{out}: neighbour {n} against distance {dist[r]:.9g} label {atlas.labels[r]}")
    order = [(n["distance"], n["id"]) for n in nb]
    if order != sorted(order):
        errors.append(f"{out}: neighbours not ordered by (distance, id): {order}")
    logits = _logits(params, atlas, q)
    if got["predicted_label"] != logits.argmax() and not _near_tie(logits):
        errors.append(f"{out}: predicted {got['predicted_label']}, logits {logits}")
    agree = sum(n["label"] == got["predicted_label"] for n in nb) / k
    if got["credibility"] != agree:
        errors.append(f"{out}: credibility {got['credibility']}, neighbour labels give {agree}")
    for r, nid in zip(rows, ids):
        path = os.path.join(out, f"bilrp_{query_id}_{nid}.json")
        with open(path) as f:
            joint = json.load(f)
        contrib = emb[q] * emb[r]
        mags = np.sort(np.abs(contrib))[::-1]
        coverage = mags[: joint["units_used"]].sum() / mags.sum() if mags.sum() > 0 else 1.0
        if joint["pair"] != [query_id, nid] or joint["units_total"] != emb.shape[1]:
            errors.append(f"{path}: pair {joint['pair']}, {joint['units_total']} units")
        if not _close(joint["similarity"], float(contrib.sum()), DISTANCE_RTOL, 1e-9):
            errors.append(f"{path}: similarity {joint['similarity']} against {contrib.sum():.9g}")
        if not _close(joint["coverage"], float(coverage), DISTANCE_RTOL, 1e-9):
            errors.append(f"{path}: coverage {joint['coverage']} against {coverage:.9g}")
        weights = [abs(c["w"]) for c in joint["connections"]]
        if weights != sorted(weights, reverse=True):
            errors.append(f"{path}: connections not sorted by |w|")
    return errors
