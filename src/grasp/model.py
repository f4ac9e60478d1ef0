"""Composition of an item encoder and a sequential backbone.

Two encoders exist: ``SemanticEncoder`` (the retrieval-augmented path:
frozen embedding stores -> gated branches -> fusion MLP) and ``IdEncoder``
(a plain trainable item-id embedding table, the ID-only baseline).  The
``RecModel`` wrapper owns the batch loss -- per-position binary cross
entropy over {positive, sampled negatives} -- and routes gradients to
exactly two parameter groups: the encoder's and the backbone's.  Semantic
stores are read-only; no gradient path into them exists.  Each store
maps dense ids to its matrix rows (``SemanticStore.lookup``), so the
encoder keeps no row map.

Each encoder's ``encode_items`` has one job per mode: without ``readout``
it encodes sequence inputs; with ``readout`` it scores candidates, in
training and evaluation alike, and ``backward`` on that cache also
returns the readout's gradient.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import hae as hae_mod
from .backbone import build_backbone
from .config import RunConfig
from .errors import DataError
from .hae import SemanticStore
from .ops import length_buckets, segment_sum, sigmoid, uniform_init


def pad_sequences(seqs, max_seq_len: int):
    """Left-pad integer sequences into an (B, L) grid plus boolean mask.

    Sequences longer than ``max_seq_len`` keep their most recent items; L
    is the longest kept length in the batch.
    """
    kept = [list(s)[-max_seq_len:] for s in seqs]
    lengths = np.array([len(s) for s in kept], dtype=np.int64)
    L = int(lengths.max(initial=0))
    mask = np.arange(L) >= L - lengths[:, None]
    items = np.zeros(mask.shape, dtype=np.int64)
    items[mask] = [item for s in kept for item in s]
    return items, mask


class SemanticEncoder:
    """Holistic-attention enhancement over frozen semantic stores.

    The semantic width ``d_sem`` is the stores' dimension; a nonzero
    ``cfg.d_sem`` must agree with it.  Dense user and item ids read
    their rows through the stores' ``lookup``.  ``params`` is the fusion
    MLP's name -> array dict (``hae.init_params``).
    """

    group_name = "hae"

    def __init__(self, user_store: SemanticStore, item_store: SemanticStore, cfg: RunConfig,
                 seed: int):
        d_sem = user_store.matrix.dim
        if item_store.matrix.dim != d_sem or cfg.d_sem not in (0, d_sem):
            raise DataError(
                f"store dims ({user_store.matrix.dim}, {item_store.matrix.dim}) "
                f"do not match each other or configured d_sem {cfg.d_sem}"
            )
        self.user_store = user_store
        self.item_store = item_store
        self.cfg = cfg
        self.params = hae_mod.init_params(cfg, d_sem, seed)

    def encode_items(self, user_ids, item_ids, positions_mask=None, readout=None):
        """Enhanced representations for items under each user's query.

        ``item_ids`` may have any trailing shape after the batch axis; the
        user vectors broadcast across it; ``positions_mask`` marks a
        sequence.  Returns (fused, cache), or with ``readout`` the logits
        and their cache (``hae.fuse_forward``).
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        distinct, index = np.unique(item_ids, return_inverse=True)
        u, u_bar = self.user_store.lookup(user_ids)
        shape = (len(user_ids),) + (1,) * (item_ids.ndim - 1) + u.shape[-1:]
        gates = hae_mod._branch_concat(u.reshape(shape), u_bar.reshape(shape),
                                       *self.item_store.lookup(item_ids), self.cfg,
                                       positions_mask=positions_mask)
        items = np.concatenate(self.item_store.lookup(distinct), axis=1)
        return hae_mod.fuse_forward(gates, index.reshape(item_ids.shape), items, self.params, readout)

    def backward(self, cache, d_out) -> dict[str, np.ndarray]:
        return hae_mod.fuse_backward(cache, d_out, self.params)


class IdEncoder:
    """Trainable item-id embedding table (ID-only baseline)."""

    group_name = "id_embedding"

    def __init__(self, item_count: int, h: int, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1DE]))
        self.emb = uniform_init(rng, (item_count, h), h)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"emb": self.emb}

    def encode_items(self, user_ids, item_ids, positions_mask=None, readout=None):
        """Rows ``emb[item_ids]``, or with ``readout`` the logits, one candidate column at a time."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if readout is None:
            return self.emb[item_ids], (item_ids, None)
        logits = np.empty(item_ids.shape)
        for c in range(item_ids.shape[-1]):
            logits[..., c] = np.einsum("...h,...h->...", readout, self.emb[item_ids[..., c]])
        return logits, (item_ids, readout)

    def backward(self, cache, d_out) -> dict[str, np.ndarray]:
        """Table gradient, plus ``"readout"`` for a readout cache: sums over candidate
        columns, formed after each column's temporaries (allocating the sums first
        measured 2-3x the page faults in the backbone passes that follow)."""
        ids, readout = cache
        n, h = self.emb.shape
        if readout is None:
            return {"emb": segment_sum(ids.reshape(-1), d_out.reshape(-1, h), n)}
        cols = [(ids[..., c], d_out[..., c, None]) for c in range(ids.shape[-1])]
        return {"emb": sum(segment_sum(col.reshape(-1), (d_c * readout).reshape(-1, h), n)
                           for col, d_c in cols),
                "readout": sum(d_c * self.emb[col] for col, d_c in cols)}


class RecModel:
    """Encoder + backbone with the BCE training objective."""

    def __init__(self, encoder, backbone):
        self.encoder = encoder
        self.backbone = backbone

    def parameter_groups(self) -> dict[str, dict[str, np.ndarray]]:
        return {self.encoder.group_name: self.encoder.params, "backbone": self.backbone.params}

    # -- training ------------------------------------------------------
    def loss_and_grads(self, batch, *, rng=None):
        """Mean BCE over real (position, candidate) pairs plus gradients.

        ``batch`` carries users (B,), inputs (B, L), mask (B, L), targets
        (B, L) and negatives (B, L, n_neg), left-padded, with at least one
        real position per row.  Rows are computed per power-of-two length
        class (``length_buckets``), each class trimmed to its own longest
        row; padded positions contribute nothing, so the classes' sums
        equal the padded batch's up to rounding, and a batch of one class
        is computed as a whole.  With an ``rng`` the backbone applies
        dropout, its masks drawn per class.  Returns (loss, grads, n_pairs).
        """
        mask = batch.mask
        n_pairs = float(mask.sum()) * (1 + batch.negatives.shape[-1])
        if n_pairs == 0:
            raise ValueError("batch contains no real training positions")
        lengths = mask.sum(axis=1)
        loss, grads = 0.0, None
        for rows in length_buckets(lengths, len(lengths)):
            L = lengths[rows].max()
            part_loss, part_grads = self._pair_loss_and_grads(
                batch.users[rows], batch.inputs[rows, -L:], mask[rows, -L:],
                batch.targets[rows, -L:], batch.negatives[rows, -L:], n_pairs, rng,
            )
            loss += part_loss
            grads = part_grads if grads is None else {
                group: {name: g + part_grads[group][name] for name, g in tensors.items()}
                for group, tensors in grads.items()}
        return loss, grads, n_pairs

    def _pair_loss_and_grads(self, users, inputs, mask, targets, negatives, n_pairs, rng):
        """BCE summed over this grid's real pairs, divided by ``n_pairs``, plus gradients."""
        enc_in, cache_in = self.encoder.encode_items(users, inputs, positions_mask=mask)
        o, bb_cache = self.backbone.forward(enc_in, mask, rng=rng)
        del enc_in  # the backbone's cache keeps what its backward needs; free the input early
        cand_ids = np.concatenate([targets[..., None], negatives], axis=-1)
        logits, cache_cand = self.encoder.encode_items(users, cand_ids, readout=o)

        labels = np.zeros_like(logits)
        labels[..., 0] = 1.0
        pair_mask = np.broadcast_to(mask[..., None], logits.shape).astype(np.float64)

        # Logit-space BCE, finite at any x: log(1 + e^-x) for a positive, log(1 + e^x) otherwise.
        losses = np.logaddexp(0.0, np.where(labels == 1.0, -logits, logits))
        loss = float((losses * pair_mask).sum() / n_pairs)
        d_logits = (sigmoid(logits) - labels) * pair_mask / n_pairs
        cand_grads = self.encoder.backward(cache_cand, d_logits)
        d_enc_in, bb_grads = self.backbone.backward(bb_cache, cand_grads.pop("readout"))
        enc_grads = {name: g + cand_grads[name]
                     for name, g in self.encoder.backward(cache_in, d_enc_in).items()}
        return loss, {self.encoder.group_name: enc_grads, "backbone": bb_grads}

    # -- inference -----------------------------------------------------
    def final_representations(self, users, seqs, max_seq_len: int) -> np.ndarray:
        """Last-position backbone output per user, shape (B, h).

        The backbone runs with ``last_only``: it keeps no training cache and
        computes no output it would discard (GRU4Rec streams its steps and
        keeps only its running state).  An ``IdEncoder``'s inputs are rows
        of one table, so the backbone reads the id grid with ``table=``
        (GRU4Rec projects each distinct item once); semantic inputs depend
        on the user and are encoded first.
        """
        inputs, mask = pad_sequences(seqs, max_seq_len)
        if isinstance(self.encoder, IdEncoder):
            out, _ = self.backbone.forward(inputs, mask, last_only=True, table=self.encoder.emb)
            return out
        enc_in, _ = self.encoder.encode_items(users, inputs, positions_mask=mask)
        out, _ = self.backbone.forward(enc_in, mask, last_only=True)
        return out

    def candidate_scores(self, users, cand_ids, o_final) -> np.ndarray:
        """sigma(o . repr) for each candidate, shape (B, C)."""
        logits, _ = self.encoder.encode_items(users, cand_ids, readout=o_final)
        return sigmoid(logits)

    # -- parameter snapshots --------------------------------------------
    def snapshot(self, precision: str = "f32") -> dict[str, dict[str, np.ndarray]]:
        """Copy of all parameters; ``f32`` mimics checkpoint serialization."""
        out = {}
        for group, tensors in self.parameter_groups().items():
            if precision == "f32":
                out[group] = {n: t.astype(np.float32).astype(np.float64) for n, t in tensors.items()}
            else:
                out[group] = {n: t.copy() for n, t in tensors.items()}
        return out

    def load_snapshot(self, snap) -> None:
        for group, tensors in self.parameter_groups().items():
            for name, tensor in tensors.items():
                tensor[...] = snap[group][name]


def semantic_checksum(model: RecModel) -> str:
    """Digest of the frozen stores; unchanged across training by contract."""
    if not isinstance(model.encoder, SemanticEncoder):
        return ""
    digest = hashlib.sha256()
    enc = model.encoder
    for store in (enc.user_store, enc.item_store):
        for arr in (store.matrix.values, store.cache.pooled_means, store.cache.neighbor_ids,
                    store.rows):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def build_semantic_model(user_store: SemanticStore, item_store: SemanticStore, cfg: RunConfig,
                         seed: int) -> RecModel:
    return RecModel(SemanticEncoder(user_store, item_store, cfg, seed), build_backbone(cfg, seed))


def build_id_model(item_count: int, cfg: RunConfig, seed: int) -> RecModel:
    return RecModel(IdEncoder(item_count, cfg.h, seed), build_backbone(cfg, seed))
