"""Corpora: vocabularies, manifest and feature-file IO, batching, synthesis.

A corpus is a directory holding one JSONL manifest per split (train.jsonl,
dev.jsonl, test.jsonl) plus binary feature files. Each manifest line is an
object with fields:

    id        unique sample name
    features  path to the sample's feature file, relative to the corpus root
              and inside it
    gloss     space-separated gloss tokens
    text      space-separated sentence tokens

Feature files ("SLTF"): magic bytes, version u32, T u32, d u32, then T*d
little-endian float32 values row-major. Everything is little-endian, so files
are bit-exact across platforms.

Vocabularies are always built from the train split: specials first at fixed
indices, then the split's tokens sorted lexicographically.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, CorpusError, VocabularyError

log = logging.getLogger("signscribe.data")

FEATURE_MAGIC = b"SLTF"
FEATURE_VERSION = 1

TEXT_SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")
GLOSS_SPECIALS = ("<blank>", "<pad>")

TEXT_PAD, TEXT_BOS, TEXT_EOS, TEXT_UNK = 0, 1, 2, 3
GLOSS_BLANK, GLOSS_PAD = 0, 1

SPLITS = ("train", "dev", "test")


class Vocabulary:
    """Token/index bijection with reserved special tokens at the bottom."""

    def __init__(self, tokens, specials):
        self.specials = tuple(specials)
        body = sorted(set(tokens) - set(self.specials))
        self._tokens = list(self.specials) + body
        self._index = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise VocabularyError("duplicate special tokens")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def index(self, token: str) -> int:
        """Token id; out-of-vocabulary text maps to <unk> when present."""
        got = self._index.get(token)
        if got is not None:
            return got
        unk = self._index.get("<unk>")
        if unk is not None:
            return unk
        raise VocabularyError(f"token {token!r} not in vocabulary")

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise VocabularyError(f"index {idx} out of range for size {len(self._tokens)}")
        return self._tokens[idx]

    def encode(self, tokens) -> list[int]:
        return [self.index(t) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.token(int(i)) for i in ids]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)


@dataclass(frozen=True)
class Sample:
    id: str
    features: np.ndarray  # (T, d_in) float32
    glosses: tuple[str, ...]
    sentence: tuple[str, ...]

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


def write_features(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype="<f4"))
    if arr.ndim != 2:
        raise ContractError(f"feature arrays are 2-d, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Write through a synced sibling temp file that then replaces path.

    A write that fails at any point leaves the old file, if any, and no
    temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_features(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            head = fh.read(16)
            if len(head) < 16 or head[:4] != FEATURE_MAGIC:
                raise CorpusError(f"{path}: not a feature file (bad magic)")
            version, t, d = struct.unpack("<III", head[4:16])
            if version != FEATURE_VERSION:
                raise CorpusError(f"{path}: unsupported feature version {version}")
            # a corrupt header must not make read() allocate more than the file
            # holds; a pipe has no size to check against
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and 4 * t * d > st.st_size - 16:
                raise CorpusError(f"{path}: truncated feature payload")
            body = fh.read(4 * t * d)
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read feature file: {exc.strerror or exc}") from exc
    if len(body) != 4 * t * d:
        raise CorpusError(f"{path}: truncated feature payload")
    return np.frombuffer(body, dtype="<f4").reshape(t, d)


def check_features(features: np.ndarray, name: str) -> None:
    """Reject a feature sequence no model can encode: non-finite, empty or zero-width."""
    if not np.all(np.isfinite(features)):
        raise CorpusError(f"{name}: non-finite feature values")
    if features.shape[0] < 1:
        raise CorpusError(f"{name}: empty feature sequence")
    if features.shape[1] < 1:
        raise CorpusError(f"{name}: feature width 0, expected at least 1")


def _parse_manifest(path: Path) -> list[dict]:
    records = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not isinstance(rec, dict):
                raise CorpusError(f"{path}:{lineno}: malformed record: not an object")
            for key in ("id", "features", "gloss", "text"):
                if key not in rec:
                    raise CorpusError(f"{path}:{lineno}: record missing field {key!r}")
                if not isinstance(rec[key], str):
                    raise CorpusError(f"{path}:{lineno}: field {key!r} is not a string")
            feat = Path(rec["features"])
            norm = os.path.normpath(feat)
            if feat.is_absolute() or Path(norm).parts[:1] == ("..",):
                raise CorpusError(f"{path}:{lineno}: features path {rec['features']!r} "
                                  "leaves the corpus root")
            if norm == os.curdir:
                raise CorpusError(f"{path}:{lineno}: features path {rec['features']!r} "
                                  "names the corpus root, not a file")
            if rec["id"] in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate sample id {rec['id']!r}")
            seen.add(rec["id"])
            records.append(rec)
    return records


def build_vocabularies(root) -> tuple[Vocabulary, Vocabulary]:
    """Gloss and text vocabularies from the train manifest only."""
    root = Path(root)
    records = _parse_manifest(root / "train.jsonl")
    if not records:
        raise CorpusError(f"{root}: empty train manifest")
    gloss_tokens: set[str] = set()
    text_tokens: set[str] = set()
    for rec in records:
        gloss_tokens.update(rec["gloss"].split())
        text_tokens.update(rec["text"].split())
    return (
        Vocabulary(gloss_tokens, GLOSS_SPECIALS),
        Vocabulary(text_tokens, TEXT_SPECIALS),
    )


def load_corpus(root, split: str) -> tuple[list[Sample], Vocabulary, Vocabulary]:
    """Load one split; vocabularies always come from the train split.

    Samples whose frame count cannot cover their gloss count are rejected;
    frame counts below the fully blank-interleaved length 2N+1 only warn,
    since such targets usually remain feasible.
    """
    if split not in SPLITS:
        raise CorpusError(f"unknown split {split!r}, expected one of {SPLITS}")
    root = Path(root)
    gloss_vocab, text_vocab = build_vocabularies(root)
    samples = []
    for rec in _parse_manifest(root / f"{split}.jsonl"):
        features = read_features(root / rec["features"])
        check_features(features, rec["id"])
        glosses = tuple(rec["gloss"].split())
        n = len(glosses)
        t = features.shape[0]
        if t < n:
            raise CorpusError(
                f"{rec['id']}: {t} frames cannot emit {n} glosses"
            )
        if t < 2 * n + 1:
            log.warning(
                "%s: %d frames is shorter than the blank-interleaved length %d",
                rec["id"], t, 2 * n + 1,
            )
        samples.append(
            Sample(
                id=rec["id"],
                features=features,
                glosses=glosses,
                sentence=tuple(rec["text"].split()),
            )
        )
    return samples, gloss_vocab, text_vocab


@dataclass(frozen=True)
class Batch:
    """Padded, mask-delimited views of a list of samples.

    Each padded axis has a mask of its real positions, which always form a
    prefix of the row. The model packs a batch's real positions into rows
    (transformer.Rows) and computes nothing at padded ones, so pad values
    never matter; they are zeros and <pad> ids only to keep the arrays
    defined. text_in rows are <bos> followed by the sentence; text_out rows
    are the sentence followed by <eos>; both are padded with the text <pad>
    id, and text_mask marks their real positions. Gloss rows are padded
    with the gloss <pad> id; gloss_mask marks their real positions and
    gloss_counts carries their true lengths for CTC.
    """

    ids: tuple[str, ...]
    features: np.ndarray  # (B, T_max, d_in) float64
    src_mask: np.ndarray  # (B, T_max) bool
    frame_counts: tuple[int, ...]
    gloss_ids: np.ndarray  # (B, N_max) int64, padded with GLOSS_PAD
    gloss_mask: np.ndarray  # (B, N_max) bool
    gloss_counts: tuple[int, ...]
    text_in: np.ndarray  # (B, U_max+1) int64
    text_out: np.ndarray  # (B, U_max+1) int64
    text_mask: np.ndarray  # (B, U_max+1) bool, real positions of text_in and text_out

    def __len__(self) -> int:
        return len(self.ids)


def pad_ids(sequences, pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id lists into a (B, max(1, longest)) int64 array plus its
    mask of real positions."""
    width = max([len(seq) for seq in sequences] + [1])
    ids = np.full((len(sequences), width), pad_id, dtype=np.int64)
    mask = np.zeros(ids.shape, dtype=bool)
    for i, seq in enumerate(sequences):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = True
    return ids, mask


def make_batch(samples, gloss_vocab: Vocabulary, text_vocab: Vocabulary) -> Batch:
    """Right-pad a group of samples into dense arrays with masks."""
    if not samples:
        raise ContractError("cannot batch zero samples")
    b = len(samples)
    d_in = samples[0].features.shape[1]
    t_max = max(s.n_frames for s in samples)

    features = np.zeros((b, t_max, d_in))
    src_mask = np.zeros((b, t_max), dtype=bool)
    for i, s in enumerate(samples):
        if s.features.shape[1] != d_in:
            raise ContractError(
                f"{s.id}: feature width {s.features.shape[1]} != batch width {d_in}"
            )
        t = s.n_frames
        features[i, :t] = s.features.astype(np.float64)
        src_mask[i, :t] = True
    gloss_ids, gloss_mask = pad_ids(
        [gloss_vocab.encode(s.glosses) for s in samples], GLOSS_PAD
    )
    words = [text_vocab.encode(s.sentence) for s in samples]
    text_in, text_mask = pad_ids([[TEXT_BOS, *w] for w in words], TEXT_PAD)
    text_out, _ = pad_ids([[*w, TEXT_EOS] for w in words], TEXT_PAD)

    return Batch(
        ids=tuple(s.id for s in samples),
        features=features,
        src_mask=src_mask,
        frame_counts=tuple(s.n_frames for s in samples),
        gloss_ids=gloss_ids,
        gloss_mask=gloss_mask,
        gloss_counts=tuple(len(s.glosses) for s in samples),
        text_in=text_in,
        text_out=text_out,
        text_mask=text_mask,
    )


# ---------------------------------------------------------------------------
# Synthetic task
# ---------------------------------------------------------------------------

N_FUNCTION_WORDS = 5


def gloss_token(i: int) -> str:
    return f"G{i:02d}"


def word_token(i: int) -> str:
    return f"w{i:02d}"


def function_word(i: int) -> str:
    return f"FW{i}"


def rewrite_glosses(gloss_indices) -> list[str]:
    """The synthetic gloss-to-sentence rule.

    The sentence is the gloss sequence reversed, each gloss replaced by its
    word form, with a function word inserted between every adjacent pair;
    the function word index is (left + right) % 5 over the adjacent pair's
    gloss indices. Reversal makes the mapping non-monotonic on purpose.
    """
    rev = list(reversed(list(gloss_indices)))
    out: list[str] = []
    for pos, g in enumerate(rev):
        if pos > 0:
            out.append(function_word((rev[pos - 1] + g) % N_FUNCTION_WORDS))
        out.append(word_token(g))
    return out


def generate_synthetic(
    out_dir,
    seed: int,
    n_train: int,
    n_dev: int,
    n_test: int,
    *,
    n_glosses: int = 20,
    d_in: int = 16,
    min_glosses: int = 3,
    max_glosses: int = 8,
    min_frames_per_gloss: int = 2,
    max_frames_per_gloss: int = 4,
    frame_noise: float = 0.1,
    sub_units: int = 0,
) -> Path:
    """Write a complete synthetic corpus; byte-identical for identical seeds.

    Every gloss owns a fixed random base vector in feature space; each
    occurrence emits 2-4 frames of that vector plus N(0, frame_noise^2)
    noise. The paired sentence comes from rewrite_glosses. Adjacent glosses
    are always distinct: with variable frames per occurrence, a same-gloss
    run has no unique factoring (a 4-frame run could be one occurrence or
    two), which would put an irreducible floor on recognition error.

    frame_noise sets task difficulty. Base vectors are unit-scale normal,
    so 0.1 keeps the glosses cleanly separable per frame while 1.0 forces
    a model to pool evidence across frames and context.

    sub_units > 0 switches to compositional emission: the corpus shares a
    pool of that many sub-unit vectors, each gloss owns a fixed ordered
    triple of them (distinct between adjacent positions), and an occurrence
    emits each code position for 1-2 frames. A single frame then identifies
    only its sub-unit, never the gloss, so frame-level recognition labels
    carry structure that sentence-level supervision has to discover on its
    own. min/max_frames_per_gloss are ignored in this mode.

    Settings that admit no corpus raise ConfigError before anything is
    written.
    """
    n_codes = sub_units * (sub_units - 1) ** 2  # triples with distinct neighbours
    for holds, rule in (
        (n_glosses >= 2, "n_glosses >= 2, as adjacent glosses differ"),
        (1 <= min_glosses <= max_glosses, "1 <= min_glosses <= max_glosses"),
        (1 <= min_frames_per_gloss <= max_frames_per_gloss,
         "1 <= min_frames_per_gloss <= max_frames_per_gloss"),
        (d_in >= 1, "d_in >= 1"),
        (min(n_train, n_dev, n_test) >= 0, "sample counts >= 0"),
        (np.isfinite(frame_noise) and frame_noise >= 0, "a finite frame_noise >= 0"),
        (sub_units == 0 or sub_units >= 2, "0 sub-units, or at least 2"),
        (sub_units == 0 or n_glosses <= n_codes,
         f"at most {n_codes} glosses, the distinct codes of {sub_units} sub-units"),
    ):
        if not holds:
            raise ConfigError(f"synthetic corpus needs {rule}")
    root = Path(out_dir)
    (root / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, size=(n_glosses, d_in))
    codes: list[tuple[int, int, int]] = []
    if sub_units:
        unit_base = rng.normal(0.0, 1.0, size=(sub_units, d_in))
        seen: set[tuple[int, int, int]] = set()
        while len(codes) < n_glosses:
            code = tuple(int(u) for u in rng.integers(0, sub_units, size=3))
            if code[0] == code[1] or code[1] == code[2] or code in seen:
                continue
            seen.add(code)
            codes.append(code)
    for split, count in (("train", n_train), ("dev", n_dev), ("test", n_test)):
        lines = []
        for i in range(count):
            sample_id = f"{split}-{i:05d}"
            n = int(rng.integers(min_glosses, max_glosses + 1))
            gloss_idx: list[int] = []
            while len(gloss_idx) < n:
                g = int(rng.integers(0, n_glosses))
                if gloss_idx and g == gloss_idx[-1]:
                    continue
                gloss_idx.append(g)
            frames = []
            for g in gloss_idx:
                if sub_units:
                    for u in codes[g]:
                        reps = int(rng.integers(1, 3))
                        frames.append(
                            unit_base[u] + rng.normal(0.0, frame_noise, size=(reps, d_in))
                        )
                else:
                    reps = int(rng.integers(min_frames_per_gloss, max_frames_per_gloss + 1))
                    frames.append(base[g] + rng.normal(0.0, frame_noise, size=(reps, d_in)))
            feat = np.concatenate(frames, axis=0)
            rel = f"features/{sample_id}.sltf"
            write_features(root / rel, feat)
            record = {
                "id": sample_id,
                "features": rel,
                "gloss": " ".join(gloss_token(g) for g in gloss_idx),
                "text": " ".join(rewrite_glosses(gloss_idx)),
            }
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        with atomic_write(root / f"{split}.jsonl", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    return root
