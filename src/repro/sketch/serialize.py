"""Sketch serialisation — shipping sketches between sites.

The distributed-stream story (Section 1.1) requires sketches to travel:
each site summarises its sub-stream locally and sends the *sketch* —
not the stream — to a coordinator, which merges by addition.  This
module provides a compact, dependency-free binary format in two layers:

* the two primitive bank formats (``dump_l0_bank`` / ``dump_recovery_
  bank`` and their loaders), kept for direct bank-level workflows; and
* the **registry sketch format**: every arena-backed kind of the kind
  table (:data:`repro.core.kinds.SKETCH_KINDS` — spanning forest,
  k-EDGECONNECT, MINCUT, the sparsifiers, the subgraph-count sketch,
  ...) lists its cell banks (``_cell_banks()``) and its constructor
  parameters (``params()``).  :func:`dump_sketch` then works for any
  such object and :func:`load_sketch` rebuilds an empty twin as
  ``cls(n, source=HashSource(seed), **params)`` and fills it —
  verifying parameters, seed, and cell-array shapes before accepting
  the payload.

**Codec v2** (the current write format) exploits the contiguous
:class:`~repro.sketch.arena.SketchArena`: a blob is a fixed magic
prefix, a JSON header, and the arena buffer — ``header +
buffer.tobytes()``, level-1-deflated since cell buffers are mostly
zeros — with a CRC32 so flipped bits are still caught without the old
zip-container overhead.  Epoch manifests are the same shape with the
concatenated checkpoint blobs as a raw payload.
**Codec v1** (numpy ``npz`` inside bytes) is still fully *readable*:
golden fixtures and any persisted checkpoints keep loading through the
legacy path, and since the arena is laid out field-major in bank order,
a v1 blob's concatenated ``phi``/``iota``/``fp1``/``fp2`` arrays and a
v2 buffer hold the very same cells in the very same order.

Only identically-parameterised, identically-seeded sketches merge, so
the format stores the constructor parameters and seeds alongside the
cell arrays; ``load_sketch(data, like=...)`` additionally refuses blobs
whose kind, parameters or seed differ from a local reference sketch —
the same rule, and message, as ``ArenaBacked.merge`` — raising
:class:`~repro.errors.SketchCompatibilityError`.  For coordinator-style
hot paths, :func:`merge_sketch_bytes` / :func:`subtract_sketch_bytes`
fold a verified v2 payload straight into a live sketch's arena without
materialising a twin sketch first.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import struct
import zlib
from typing import Any

import numpy as np

from ..errors import SketchCompatibilityError, incompatible
from ..hashing import MERSENNE31, HashSource
from .arena import ArenaBacked, ensure_arena, require_same_identity, sketch_identity
from .bank import CellBank
from .l0 import L0SamplerBank
from .sparse_recovery import SparseRecoveryBank

__all__ = [
    "serializable_sketch_kinds",
    "sketch_kind_of",
    "dump_sketch",
    "load_sketch",
    "merge_sketch_bytes",
    "subtract_sketch_bytes",
    "peek_sketch_meta",
    "dump_epoch_manifest",
    "load_epoch_manifest",
    "dump_l0_bank",
    "load_l0_bank",
    "dump_recovery_bank",
    "load_recovery_bank",
]

_MAGIC = "repro-sketch-v1"
_MAGIC_V2 = "repro-sketch-v2"
_MANIFEST_KIND = "epoch-manifest"
#: Leading bytes of every v2 blob (sketches and manifests alike).
_V2_PREFIX = b"RSKB2\n"
_V2_HEAD = struct.Struct("<I")


def _pack(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    header = dict(meta)
    header["__magic__"] = _MAGIC
    header["__kind__"] = kind
    buf = io.BytesIO()
    np.savez_compressed(
        buf, __header__=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ), **arrays,
    )
    return buf.getvalue()


def _read_blob(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a blob into (header, arrays), with clear corruption errors."""
    buf = io.BytesIO(data)
    try:
        with np.load(buf) as npz:
            header = json.loads(bytes(npz["__header__"]).decode("utf-8"))
            arrays = {k: npz[k] for k in npz.files if k != "__header__"}
    except Exception as err:  # zipfile.BadZipFile, KeyError, json errors...
        raise ValueError(
            "not a repro sketch blob (corrupt or foreign bytes)"
        ) from err
    if header.get("__magic__") != _MAGIC:
        raise ValueError(
            f"not a repro sketch blob (bad magic {header.get('__magic__')!r})"
        )
    return header, arrays


def _unpack(data: bytes, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    if _is_v2(data):
        # The primitive bank formats are npz-only; a v2 blob handed to
        # them is by definition of another kind.
        header = _read_raw(data)[0]
        raise ValueError(
            f"blob holds a {header.get('__kind__')!r}, expected {kind!r}"
        )
    header, arrays = _read_blob(data)
    if header.get("__kind__") != kind:
        raise ValueError(
            f"blob holds a {header.get('__kind__')!r}, expected {kind!r}"
        )
    return header, arrays


# -- codec v2: raw header + payload containers ---------------------------------


def _is_v2(data: bytes) -> bool:
    return data[:len(_V2_PREFIX)] == _V2_PREFIX


def _pack_raw(
    kind: str, meta: dict, payload: bytes, encoding: str = "raw"
) -> bytes:
    """Assemble a v2 blob: magic, JSON header, payload bytes.

    ``encoding="zlib"`` deflates the payload at level 1 — sketch cell
    buffers are mostly zeros, so this keeps shipped/persisted sizes in
    v1 territory at a fraction of the old npz container cost.  Manifest
    payloads stay ``"raw"``: they are concatenations of already-encoded
    checkpoint blobs.
    """
    stored = (
        zlib.compress(payload, 1)
        if encoding in ("zlib", "sparse-zlib") else payload
    )
    header = dict(meta)
    header["__magic__"] = _MAGIC_V2
    header["__kind__"] = kind
    header["encoding"] = encoding
    header["payload_bytes"] = len(stored)
    header["crc32"] = zlib.crc32(stored) & 0xFFFFFFFF
    head = json.dumps(header).encode("utf-8")
    return b"".join((_V2_PREFIX, _V2_HEAD.pack(len(head)), head, stored))


def _read_raw(data: bytes) -> tuple[dict, bytes]:
    """Parse a v2 blob into (header, payload) with corruption checks.

    The declared payload length and a CRC32 stand in for the container
    integrity the v1 zip format provided: truncation, padding, and bit
    flips anywhere in the blob all raise :class:`ValueError`.
    """
    base = len(_V2_PREFIX)
    try:
        (head_len,) = _V2_HEAD.unpack_from(data, base)
        head_end = base + _V2_HEAD.size + head_len
        if head_end > len(data):
            raise ValueError("header extends past the blob")
        header = json.loads(data[base + _V2_HEAD.size:head_end].decode("utf-8"))
    except (ValueError, struct.error) as err:  # unicode/json derive ValueError
        raise ValueError(
            "not a repro sketch blob (corrupt or foreign bytes)"
        ) from err
    if not isinstance(header, dict) or header.get("__magic__") != _MAGIC_V2:
        magic = header.get("__magic__") if isinstance(header, dict) else None
        raise ValueError(f"not a repro sketch blob (bad magic {magic!r})")
    payload = data[head_end:]
    declared = header.get("payload_bytes")
    if declared != len(payload):
        raise ValueError(
            f"blob payload truncated or padded: header promises "
            f"{declared} bytes, blob holds {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != header.get("crc32"):
        raise ValueError(
            "blob payload checksum mismatch — corrupt or tampered bytes"
        )
    encoding = header.get("encoding", "raw")
    if encoding in ("zlib", "sparse-zlib"):
        try:
            payload = zlib.decompress(payload)
        except zlib.error as err:
            raise ValueError(
                "blob payload fails to inflate — corrupt or tampered bytes"
            ) from err
    elif encoding != "raw":
        raise ValueError(f"blob payload has unknown encoding {encoding!r}")
    return header, payload


def _read_header_any(data: bytes) -> dict:
    """Header of a blob of either codec version."""
    if _is_v2(data):
        return _read_raw(data)[0]
    return _read_blob(data)[0]


def _validated_cell_buffer(payload: bytes, cells: int) -> np.ndarray:
    """Interpret a dense v2 sketch payload as a field-major arena buffer.

    Verifies the byte length against the expected ``4 * cells`` int64
    cells and that the fingerprint half stays inside ``GF(2^31 - 1)`` —
    the same guarantees the v1 loader enforced per field array.
    """
    if len(payload) != 4 * cells * 8:
        raise ValueError(
            f"blob cell buffer mis-sized: expected {4 * cells * 8} bytes "
            f"for {cells} cells, got {len(payload)} — corrupt or tampered "
            "blob"
        )
    raw = np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=False)
    fps = raw[2 * cells:]
    if fps.size and (int(fps.min()) < 0 or int(fps.max()) >= MERSENNE31):
        raise ValueError(
            "blob fingerprint cells have values outside GF(2^31 - 1) — "
            "corrupt or tampered blob"
        )
    return raw


def _validated_sparse_cells(
    header: dict, payload: bytes, cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interpret a sparse v2 payload as ``(positions, values)``.

    The payload is ``nnz`` strictly-increasing int64 buffer positions
    followed by ``nnz`` int64 values; ordering gives uniqueness (so
    scatters are well-defined) for free, and fingerprint-half values
    must already be reduced mod ``2^31 - 1``.
    """
    nnz = header.get("nnz")
    if not isinstance(nnz, int) or nnz < 0 or len(payload) != 16 * nnz:
        raise ValueError(
            f"blob sparse cell payload mis-sized: nnz={nnz!r} implies "
            f"{16 * nnz if isinstance(nnz, int) else '?'} bytes, got "
            f"{len(payload)} — corrupt or tampered blob"
        )
    raw = np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=False)
    idx, values = raw[:nnz], raw[nnz:]
    if nnz:
        if int(idx[0]) < 0 or int(idx[-1]) >= 4 * cells:
            raise ValueError(
                "blob sparse cell positions outside the buffer — corrupt "
                "or tampered blob"
            )
        if not bool((np.diff(idx) > 0).all()):
            raise ValueError(
                "blob sparse cell positions not strictly increasing — "
                "corrupt or tampered blob"
            )
        fp_values = values[idx >= 2 * cells]
        if fp_values.size and (
            int(fp_values.min()) < 0 or int(fp_values.max()) >= MERSENNE31
        ):
            raise ValueError(
                "blob fingerprint cells have values outside GF(2^31 - 1) "
                "— corrupt or tampered blob"
            )
    return idx, values


# -- the sketch-kind registry --------------------------------------------------

_SKETCH_KIND_PREFIX = "sketch:"


@functools.cache
def _kinds() -> dict[str, type]:
    """Serialisable kind name → class: the arena-backed kinds of the table.

    Read from :data:`repro.core.kinds.SKETCH_KINDS` on first use, so
    that :mod:`repro.sketch` stays importable on its own.
    """
    from ..core.kinds import SKETCH_KINDS

    return {
        kind: cls for kind, cls in SKETCH_KINDS.items()
        if issubclass(cls, ArenaBacked)
    }


@functools.cache
def _kind_by_class() -> dict[type, str]:
    return {cls: kind for kind, cls in _kinds().items()}


@functools.cache
def _ctor_params(cls: type) -> frozenset[str]:
    """Keyword parameters ``cls(source=..., **params)`` accepts."""
    return frozenset(inspect.signature(cls).parameters) - {"source"}


def serializable_sketch_kinds() -> tuple[str, ...]:
    """Registered kind names (sorted)."""
    return tuple(sorted(_kinds()))


def sketch_kind_of(sketch: Any) -> str:
    """The registered kind name of ``sketch`` (raises ``TypeError`` if none)."""
    kind = _kind_by_class().get(type(sketch))
    if kind is None:
        raise TypeError(
            f"{type(sketch).__name__} has no registered sketch codec; "
            f"known kinds: {', '.join(serializable_sketch_kinds())}"
        )
    return kind


def _blob_kind(header: dict) -> str:
    """The registered kind a sketch blob's header names."""
    kind = header.get("__kind__", "")
    if not isinstance(kind, str) or not kind.startswith(_SKETCH_KIND_PREFIX):
        raise ValueError(
            f"blob holds a {kind!r}, not a registry-serialised sketch"
        )
    name = kind[len(_SKETCH_KIND_PREFIX):]
    if name not in _kinds():
        raise ValueError(f"unknown sketch kind {kind!r}")
    return name


def _construct(cls: type, header: dict) -> Any:
    """A fresh, empty, identically-seeded twin of a blob's sketch or bank.

    Built as ``cls(source=HashSource(seed), **params)`` — for the
    registry kinds the :meth:`~repro.api.SketchSpec.build` recipe.  A
    stored parameter the constructor does not take (the ``k`` the cut
    hierarchies derive from ``epsilon`` and ``c_k``) must equal the
    value the twin derives.
    """
    accepted = _ctor_params(cls)
    sketch = cls(
        source=HashSource(header["seed"]),
        **{key: value for key, value in header.items() if key in accepted},
    )
    for field, value in sketch.params().items():
        if header.get(field) != value:
            raise ValueError(
                f"stored {field}={header.get(field)!r} does not match the "
                f"value {value!r} derived from the blob's parameters — "
                "corrupt or tampered blob"
            )
    return sketch


def dump_sketch(
    sketch: Any,
    seed: int | None = None,
    epoch_meta: dict | None = None,
) -> bytes:
    """Serialise any registered sketch object to bytes.

    The blob carries the constructor parameters, the master seed, and
    the concatenated cell arrays of every constituent bank — everything
    a coordinator needs to rebuild an identically-seeded twin and merge
    it (:func:`load_sketch`).  ``seed`` overrides the recorded
    ``source_seed`` for sketches built from non-seeded sources.

    ``epoch_meta`` attaches temporal-checkpoint metadata (epoch id,
    token counts...) under the reserved ``"epoch"`` header key; it is
    carried verbatim, surfaced by :func:`peek_sketch_meta`, and ignored
    by the parameter/seed verification of :func:`load_sketch` — two
    checkpoints of the same sketch at different epochs stay mergeable.
    """
    kind = sketch_kind_of(sketch)
    if seed is None:
        seed = getattr(sketch, "source_seed", None)
    if seed is None:
        raise ValueError(
            f"{type(sketch).__name__} has no recorded seed; pass one explicitly"
        )
    meta = sketch.params()
    meta["seed"] = int(seed)
    meta["cells"] = [int(b.size) for b in sketch._cell_banks()]
    if epoch_meta is not None:
        meta["epoch"] = dict(epoch_meta)
    # Field-major arena buffer == the v1 concatenation order of
    # phi/iota/fp1/fp2 across banks, but with zero gather work.  A
    # lightly-loaded sketch (a site shard, an early epoch) ships as
    # sparse (position, value) pairs instead — smaller bytes *and* an
    # O(nnz) fold at the coordinator.
    buffer = ensure_arena(sketch).buffer
    idx = np.flatnonzero(buffer)
    kind = _SKETCH_KIND_PREFIX + kind
    if 2 * idx.size <= buffer.size // 4:
        meta["nnz"] = int(idx.size)
        payload = (
            idx.astype("<i8", copy=False).tobytes()
            + buffer[idx].astype("<i8", copy=False).tobytes()
        )
        return _pack_raw(kind, meta, payload, encoding="sparse-zlib")
    payload = buffer.astype("<i8", copy=False).tobytes()
    return _pack_raw(kind, meta, payload, encoding="zlib")


def load_sketch(data: bytes, like: Any | None = None) -> Any:
    """Reconstruct a sketch serialised by :func:`dump_sketch`.

    The stored parameters rebuild a fresh identically-seeded sketch and
    the cell payload is copied in, after verifying that the bank layout
    implied by the parameters matches the payload exactly (mismatched
    or tampered parameters refuse to load).  Both codec versions load:
    v2 blobs restore the whole arena buffer in one copy; legacy v1
    (npz) blobs restore bank by bank.

    Parameters
    ----------
    like:
        Optional reference sketch.  When given, the blob must describe
        the *same* sketch type, parameters, and seed; any difference
        raises :class:`~repro.errors.SketchCompatibilityError` naming
        the offending fields.  Use this before merging a received
        sketch into a local one.
    """
    if _is_v2(data):
        header, payload = _read_raw(data)
        arrays = None
    else:
        header, arrays = _read_blob(data)
        payload = None
    kind = _blob_kind(header)
    if like is not None:
        _verify_like(kind, header, like)
    sketch = _construct(_kinds()[kind], header)
    banks = sketch._cell_banks()
    cells = header.get("cells")
    if cells != [int(b.size) for b in banks]:
        raise ValueError(
            f"blob cell layout {cells} does not match the layout "
            f"reconstructed from its parameters — corrupt or tampered blob"
        )
    total = int(sum(cells))
    if payload is not None:
        arena = ensure_arena(sketch)
        if header.get("encoding") == "sparse-zlib":
            idx, values = _validated_sparse_cells(header, payload, total)
            # A freshly constructed sketch's buffer is all zeros.
            arena.buffer[idx] = values
        else:
            arena.buffer[:] = _validated_cell_buffer(payload, total)
        return sketch
    _restore_v1_arrays(banks, arrays, total)
    return sketch


def _restore_v1_arrays(
    banks: "list[CellBank]", arrays: dict[str, np.ndarray], total: int
) -> None:
    """Copy a legacy v1 blob's four field arrays into the banks."""
    for name in ("phi", "iota", "fp1", "fp2"):
        arr = arrays.get(name)
        if arr is None or arr.shape != (total,):
            raise ValueError(f"blob cell array {name!r} missing or mis-sized")
        if arr.dtype != np.int64:
            raise ValueError(
                f"blob cell array {name!r} has dtype {arr.dtype}, "
                "expected int64 — corrupt or tampered blob"
            )
    for name in ("fp1", "fp2"):
        arr = arrays[name]
        if arr.size and (
            int(arr.min()) < 0 or int(arr.max()) >= MERSENNE31
        ):
            raise ValueError(
                f"blob fingerprint array {name!r} has values outside "
                "GF(2^31 - 1) — corrupt or tampered blob"
            )
    offset = 0
    for bank in banks:
        end = offset + bank.size
        bank.phi[:] = arrays["phi"][offset:end]
        bank.iota[:] = arrays["iota"][offset:end]
        bank.fp1[:] = arrays["fp1"][offset:end]
        bank.fp2[:] = arrays["fp2"][offset:end]
        offset = end


def merge_sketch_bytes(sketch: Any, data: bytes) -> None:
    """Fold a serialised sketch directly into ``sketch`` (coordinator path).

    Equivalent to ``sketch.merge(load_sketch(data, like=sketch))`` but,
    for v2 blobs, skips materialising the twin: after the same
    parameter/seed/layout/fingerprint verification, the payload is
    added straight into the live sketch's arena — two vector ops total.
    Legacy v1 blobs fall back to reconstruct-and-merge.
    """
    _combine_sketch_bytes(sketch, data, subtract=False)


def subtract_sketch_bytes(sketch: Any, data: bytes) -> None:
    """Subtract a serialised sketch from ``sketch`` (temporal-window path).

    The subtraction twin of :func:`merge_sketch_bytes` — materialising
    an epoch window becomes one checkpoint load plus one in-arena
    subtraction of the earlier checkpoint's bytes.
    """
    _combine_sketch_bytes(sketch, data, subtract=True)


def _combine_sketch_bytes(sketch: Any, data: bytes, subtract: bool) -> None:
    sketch_kind_of(sketch)
    if not _is_v2(data):
        other = load_sketch(data, like=sketch)
        (sketch.subtract if subtract else sketch.merge)(other)
        return
    header, payload = _read_raw(data)
    _verify_like(
        _blob_kind(header), header, sketch,
        op="subtract" if subtract else "merge",
    )
    banks = sketch._cell_banks()
    cells = header.get("cells")
    if cells != [int(b.size) for b in banks]:
        raise ValueError(
            f"blob cell layout {cells} does not match the local sketch — "
            "corrupt or tampered blob"
        )
    total = int(sum(cells))
    arena = ensure_arena(sketch)
    if header.get("encoding") == "sparse-zlib":
        idx, values = _validated_sparse_cells(header, payload, total)
        arena._combine_sparse(idx, values, subtract=subtract)
    else:
        arena._combine_raw(
            _validated_cell_buffer(payload, total), subtract=subtract
        )


def peek_sketch_meta(data: bytes) -> dict:
    """The blob's header (kind, parameters, seed) without reconstructing."""
    return _read_header_any(data)


def _verify_like(kind: str, header: dict, like: Any, op: str = "load") -> None:
    """Refuse a blob whose kind, parameters or seed differ from ``like``'s.

    The same rule as :meth:`~repro.sketch.arena.ArenaBacked.merge`,
    applied to the blob header in place of a second live sketch.
    """
    name = type(like).__name__
    like_kind = _kind_by_class().get(type(like))
    if like_kind != kind:
        raise incompatible(name, "kind", like_kind, kind, op=op)
    require_same_identity(name, sketch_identity(like), header, op=op)


# -- epoch manifests -----------------------------------------------------------


def dump_epoch_manifest(
    payloads: "list[bytes]",
    epoch_ids: "list[int] | None" = None,
    meta: dict | None = None,
) -> bytes:
    """Bundle per-epoch checkpoint payloads into one manifest blob.

    ``payloads`` are :func:`dump_sketch` blobs — cumulative prefix
    checkpoints, one per sealed epoch, all of the same sketch kind and
    seed (verified here, so a mixed bundle fails at *dump* time).
    ``epoch_ids`` defaults to ``1..E`` and must equal exactly that —
    the 1-based consecutive grid :class:`~repro.temporal.epochs.
    EpochTimeline` restores — which :func:`load_epoch_manifest`
    re-checks on the way back in.  ``meta`` carries caller metadata
    (epoch boundaries, token counts...) and must be JSON-serialisable.
    """
    if not payloads:
        raise ValueError("an epoch manifest needs at least one checkpoint")
    if epoch_ids is None:
        epoch_ids = list(range(1, len(payloads) + 1))
    epoch_ids = [int(e) for e in epoch_ids]
    if epoch_ids != list(range(1, len(payloads) + 1)):
        raise ValueError(
            f"epoch ids {epoch_ids} must be 1..{len(payloads)} in order, "
            f"one per payload"
        )
    kinds: set[object] = set()
    seeds: set[object] = set()
    for payload in payloads:
        header = _read_header_any(payload)
        kinds.add(header.get("__kind__"))
        seeds.add(header.get("seed"))
    if len(kinds) != 1 or len(seeds) != 1:
        raise SketchCompatibilityError(
            f"manifest checkpoints must share one sketch kind and seed, "
            f"got kinds={sorted(map(str, kinds))} seeds={sorted(map(str, seeds))}"
        )
    header = dict(meta or {})
    header["sketch_kind"] = kinds.pop()
    header["sketch_seed"] = seeds.pop()
    header["epoch_ids"] = epoch_ids
    header["lengths"] = [len(p) for p in payloads]
    # Zero-copy bundling: the manifest payload *is* the checkpoint
    # blobs back to back (each already carrying its own CRC).
    return _pack_raw(_MANIFEST_KIND, header, b"".join(payloads))


def load_epoch_manifest(data: bytes) -> tuple[dict, "list[bytes]"]:
    """Parse a manifest back into ``(header, checkpoint payloads)``.

    Refuses — with :class:`ValueError` / :class:`~repro.errors.
    SketchCompatibilityError`, never a silently wrong result — blobs
    that are not manifests, manifests whose concatenated payload bytes
    do not match the recorded lengths (truncation/padding), epoch ids
    that are not consecutive and increasing, and checkpoints whose
    sketch kind or seed disagrees with the manifest header.  Reads both
    codec versions (v1 fixtures keep loading).
    """
    if _is_v2(data):
        header, raw = _read_raw(data)
        if header.get("__kind__") != _MANIFEST_KIND:
            raise ValueError(
                f"blob holds a {header.get('__kind__')!r}, "
                f"expected {_MANIFEST_KIND!r}"
            )
    else:
        header, arrays = _unpack(data, _MANIFEST_KIND)
        blob = arrays.get("payloads")
        if blob is None or blob.dtype != np.uint8:
            raise ValueError(
                "epoch manifest payload array missing or mis-typed"
            )
        raw = blob.tobytes()
    epoch_ids = header.get("epoch_ids")
    lengths = header.get("lengths")
    if not isinstance(epoch_ids, list) or not isinstance(lengths, list):
        raise ValueError("epoch manifest header lacks epoch_ids/lengths")
    if len(epoch_ids) != len(lengths) or not epoch_ids:
        raise ValueError(
            f"epoch manifest header inconsistent: {len(epoch_ids)} epoch "
            f"ids vs {len(lengths)} payload lengths"
        )
    if epoch_ids != list(range(1, len(epoch_ids) + 1)):
        raise ValueError(
            f"epoch ids {epoch_ids} are not the consecutive grid "
            f"1..{len(epoch_ids)} — out-of-order, duplicated, or offset "
            "checkpoints"
        )
    if sum(lengths) != len(raw):
        raise ValueError(
            f"epoch manifest payloads truncated or padded: header promises "
            f"{sum(lengths)} bytes, blob holds {len(raw)}"
        )
    payloads: list[bytes] = []
    offset = 0
    for length in lengths:
        if length <= 0:
            raise ValueError(f"epoch manifest payload length {length} invalid")
        payloads.append(raw[offset:offset + length])
        offset += length
    for i, payload in enumerate(payloads):
        chk_header = _read_header_any(payload)
        if chk_header.get("__kind__") != header.get("sketch_kind"):
            raise ValueError(
                f"checkpoint {epoch_ids[i]} holds a "
                f"{chk_header.get('__kind__')!r} sketch, manifest promises "
                f"{header.get('sketch_kind')!r}"
            )
        if chk_header.get("seed") != header.get("sketch_seed"):
            raise SketchCompatibilityError(
                f"checkpoint {epoch_ids[i]} was built with seed "
                f"{chk_header.get('seed')!r}, manifest promises "
                f"{header.get('sketch_seed')!r}"
            )
    return header, payloads


def dump_l0_bank(bank: L0SamplerBank, seed: int | None = None) -> bytes:
    """Serialise an :class:`L0SamplerBank`.

    The bank's constructor seed travels with the blob so the receiving
    side reconstructs identical hash functions (without it, the cell
    arrays would be uninterpretable).  Banks built from non-seeded
    sources must pass ``seed`` explicitly.
    """
    if seed is None:
        seed = bank.source_seed
    if seed is None:
        raise ValueError("bank has no recorded seed; pass one explicitly")
    meta = {"seed": int(seed), **bank.params()}
    arrays = {
        "phi": bank.bank.phi,
        "iota": bank.bank.iota,
        "fp1": bank.bank.fp1,
        "fp2": bank.bank.fp2,
    }
    return _pack("l0_bank", meta, arrays)


def load_l0_bank(data: bytes) -> L0SamplerBank:
    """Reconstruct an :class:`L0SamplerBank` from :func:`dump_l0_bank` bytes."""
    meta, arrays = _unpack(data, "l0_bank")
    bank = _construct(L0SamplerBank, meta)
    _restore_cells(bank.bank, arrays)
    return bank


def dump_recovery_bank(bank: SparseRecoveryBank, seed: int | None = None) -> bytes:
    """Serialise a :class:`SparseRecoveryBank` (see :func:`dump_l0_bank`)."""
    if seed is None:
        seed = bank.source_seed
    if seed is None:
        raise ValueError("bank has no recorded seed; pass one explicitly")
    meta = {"seed": int(seed), **bank.params()}
    arrays = {
        "phi": bank.bank.phi,
        "iota": bank.bank.iota,
        "fp1": bank.bank.fp1,
        "fp2": bank.bank.fp2,
    }
    return _pack("recovery_bank", meta, arrays)


def load_recovery_bank(data: bytes) -> SparseRecoveryBank:
    """Reconstruct a bank from :func:`dump_recovery_bank` bytes."""
    meta, arrays = _unpack(data, "recovery_bank")
    bank = _construct(SparseRecoveryBank, meta)
    _restore_cells(bank.bank, arrays)
    return bank


def _restore_cells(cell_bank, arrays: dict[str, np.ndarray]) -> None:
    if arrays["phi"].shape != cell_bank.phi.shape:
        raise ValueError(
            "serialised cell arrays do not match the reconstructed shape"
        )
    cell_bank.phi[:] = arrays["phi"]
    cell_bank.iota[:] = arrays["iota"]
    cell_bank.fp1[:] = arrays["fp1"]
    cell_bank.fp2[:] = arrays["fp2"]
