"""An independent NumPy scorer for metd checkpoints and clip datasets.

It shares no code with metd: the checkpoint is parsed from its text
format here, and scoring is written out in array form.  A clip is scored
by mean-pooling its frames, applying the affine adapter (plus the
identity when residual), and comparing with every descriptor embedding,
which is the mean of the shared context and the descriptor's tokens
(projected when the encoder is ``projected-mean``).  The class score is
the mean cosine over its descriptors and the prediction is the argmax,
lowest index on ties.
"""

import re

import numpy as np

_HEADER = re.compile(r"^metd-checkpoint v1 (.*)$")
_TOKEN = re.compile(r"^bank\.tokens\[(\d+)\]\[(\d+)\]\[(\d+)\]$")
_CONTEXT = re.compile(r"^bank\.context\[(\d+)\]$")


def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _matrix(text: str) -> np.ndarray:
    return np.vstack([_vector(row) for row in text.split(";")])


def read_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    match = _HEADER.match(lines[0])
    if not match:
        raise ValueError(f"{path}: not a v1 metd checkpoint")
    header = dict(field.split("=", 1) for field in match.group(1).split())
    n, k, m = (int(header[key]) for key in ("n_classes", "n_subclasses", "n_tokens"))
    dim = int(header["token_dim"])
    tokens = np.zeros((n, k, m, dim))
    context = np.zeros((int(header["context_length"]), dim))
    params = {}
    for line in lines[1:]:
        key, value = line.split("\t")
        if token := _TOKEN.match(key):
            i, kk, mm = (int(g) for g in token.groups())
            tokens[i, kk, mm] = _vector(value)
        elif ctx := _CONTEXT.match(key):
            context[int(ctx.group(1))] = _vector(value)
        elif key == "adapter.bias":
            params[key] = _vector(value)
        else:
            params[key] = _matrix(value)
    return {
        "tokens": tokens,
        "context": context,
        "weight": params["adapter.weight"],
        "bias": params["adapter.bias"],
        "projection": params.get("encoder.projection"),
        "residual": header["residual"] == "true",
    }


def descriptor_embeddings(checkpoint: dict) -> np.ndarray:
    """(classes, subclasses, embed dim) descriptor embeddings."""
    tokens, context = checkpoint["tokens"], checkpoint["context"]
    length = context.shape[0] + tokens.shape[2]
    mean = (context.sum(axis=0) + tokens.sum(axis=2)) / length
    if checkpoint["projection"] is not None:
        mean = mean @ checkpoint["projection"].T
    return mean


def predict_clips(checkpoint: dict, clips) -> np.ndarray:
    """Predicted label of each clip, a (frames, feature dim) array."""
    pooled = np.vstack([clip.mean(axis=0) for clip in clips])
    embedded = pooled @ checkpoint["weight"].T + checkpoint["bias"]
    if checkpoint["residual"]:
        embedded = embedded + pooled
    descriptors = descriptor_embeddings(checkpoint)
    descriptors = descriptors / np.linalg.norm(descriptors, axis=2, keepdims=True)
    embedded = embedded / np.linalg.norm(embedded, axis=1, keepdims=True)
    cosines = np.einsum("ud,nkd->unk", embedded, descriptors)
    return np.argmax(cosines.mean(axis=2), axis=1)


def confusion(labels, predictions, n_classes: int) -> np.ndarray:
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (np.asarray(labels), np.asarray(predictions)), 1)
    return matrix
