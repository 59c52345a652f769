"""Model state: descriptor token bank, frozen text encoder, image adapter.

The classifier is a bank of learnable descriptor token grids (one grid of
``n_tokens`` tokens per class/subclass pair) sharing one frozen context
block, a frozen mean-pooling text encoder that turns a token sequence
into an embedding, and a trainable affine adapter that maps image
features into the same embedding space.  Training never touches the
context block or the encoder; stage 1 updates only the descriptor
tokens, stage 2 only the adapter.

Checkpoint file format: a header line, then one ``key<TAB>value`` line
per vector or matrix, in the one order that the header's dimensions fix
(``_checkpoint_layout``).  Vector values are comma-separated decimals
with 17 significant digits (lossless for float64); matrices join their
rows with ``;``.  Token vectors are keyed ``bank.tokens[i][k][m]`` and
context vectors ``bank.context[c]``.
"""

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError
from .numerics import check_temperature

TOKEN_INIT_STD = 0.02

IDENTITY_MEAN = "identity-mean"
PROJECTED_MEAN = "projected-mean"
ENCODER_KINDS = (IDENTITY_MEAN, PROJECTED_MEAN)

# Seed-stream tags: every consumer of randomness seeds its generator with
# default_rng([tag, seed, ...]) so distinct concerns never share a stream.
STREAM_BANK = 1
STREAM_PROJECTION = 2
STREAM_SYNTH = 3
STREAM_SHUFFLE = 4
STREAM_OVERSAMPLE = 5
STREAM_HARNESS = 6
STREAM_FDCHECK = 7


def _require_positive(**named_values):
    """Each value must be an integer >= 1: a NumPy integer passes, a bool or a float does not."""
    for name, value in named_values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ContractViolation(f"{name} must be a positive integer, got {value!r}")


def _require_seed(seed):
    """A seed is an integer >= 0, as ``default_rng`` takes it: a bool or a float is not."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ContractViolation(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass
class DescriptorBank:
    """Learnable descriptor tokens plus the shared frozen context block.

    ``tokens`` has shape (n_classes, n_subclasses, n_tokens, token_dim)
    and is the only trainable array here.  ``context`` has shape
    (context_length, token_dim) and stays fixed after initialization.
    """

    tokens: np.ndarray
    context: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        self.context = np.asarray(self.context, dtype=np.float64)
        if self.tokens.ndim != 4:
            raise ContractViolation(
                f"tokens must be 4-D (classes, subclasses, tokens, dim), "
                f"got shape {self.tokens.shape}"
            )
        if self.context.ndim != 2:
            raise ContractViolation(
                f"context must be 2-D (length, dim), got shape {self.context.shape}"
            )
        if self.context.shape[1] != self.tokens.shape[3]:
            raise ContractViolation(
                f"context dim {self.context.shape[1]} != token dim {self.tokens.shape[3]}"
            )
        if not (np.all(np.isfinite(self.tokens)) and np.all(np.isfinite(self.context))):
            raise ContractViolation("bank contains non-finite entries")

    @property
    def n_classes(self) -> int:
        return self.tokens.shape[0]

    @property
    def n_subclasses(self) -> int:
        return self.tokens.shape[1]

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[2]

    @property
    def token_dim(self) -> int:
        return self.tokens.shape[3]

    @property
    def context_length(self) -> int:
        return self.context.shape[0]


def build_bank(
    n_classes: int,
    n_subclasses: int,
    n_tokens: int,
    token_dim: int,
    context_length: int,
    seed: int,
) -> DescriptorBank:
    """Initialize a bank with N(0, 0.02^2) tokens and context.

    Deterministic in ``seed``: the same arguments always produce
    bit-identical arrays.
    """
    _require_positive(
        n_classes=n_classes,
        n_subclasses=n_subclasses,
        n_tokens=n_tokens,
        token_dim=token_dim,
        context_length=context_length,
    )
    _require_seed(seed)
    rng = np.random.default_rng([STREAM_BANK, seed])
    tokens = rng.normal(
        0.0, TOKEN_INIT_STD, size=(n_classes, n_subclasses, n_tokens, token_dim)
    )
    context = rng.normal(0.0, TOKEN_INIT_STD, size=(context_length, token_dim))
    return DescriptorBank(tokens=tokens, context=context)


@dataclass
class TextEncoder:
    """Frozen encoder: mean over the token sequence, optionally projected.

    kind "identity-mean" returns the mean token directly (token_dim must
    equal embed_dim); "projected-mean" applies a fixed random projection
    after the mean.  The projection, when present, is never trained.
    """

    kind: str
    token_dim: int
    embed_dim: int
    projection: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ContractViolation(
                f"unknown encoder kind {self.kind!r}, expected one of {ENCODER_KINDS}"
            )
        if self.kind == IDENTITY_MEAN:
            if self.token_dim != self.embed_dim:
                raise ContractViolation(
                    f"identity-mean requires token_dim == embed_dim, "
                    f"got {self.token_dim} vs {self.embed_dim}"
                )
            if self.projection is not None:
                raise ContractViolation("identity-mean takes no projection")
        else:
            if self.projection is None:
                raise ContractViolation("projected-mean requires a projection matrix")
            self.projection = np.asarray(self.projection, dtype=np.float64)
            if self.projection.shape != (self.embed_dim, self.token_dim):
                raise ContractViolation(
                    f"projection shape {self.projection.shape} != "
                    f"({self.embed_dim}, {self.token_dim})"
                )


def build_text_encoder(kind: str, token_dim: int, embed_dim: int, seed: int) -> TextEncoder:
    _require_positive(token_dim=token_dim, embed_dim=embed_dim)
    _require_seed(seed)
    projection = None
    if kind == PROJECTED_MEAN:
        rng = np.random.default_rng([STREAM_PROJECTION, seed])
        # 1/sqrt(token_dim) scaling keeps output norms comparable to inputs.
        projection = rng.normal(
            0.0, 1.0 / np.sqrt(token_dim), size=(embed_dim, token_dim)
        )
    return TextEncoder(
        kind=kind, token_dim=token_dim, embed_dim=embed_dim, projection=projection
    )


def encode_text(encoder: TextEncoder, context: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Embed descriptors: mean over [context ++ tokens], then project.

    ``tokens`` is one (M, d) sequence or a stack (..., M, d) of them; each
    row of the result is bit for bit the embedding of its sequence alone.
    Both are d = ``encoder.token_dim`` wide.  ``context`` may be empty
    (shape (0, d)); the combined sequence must not be.  Linear in every
    token, which is what makes the exact gradient in
    :func:`encode_text_token_gradient` a constant map.
    """
    context = np.asarray(context, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.float64)
    if context.ndim != 2 or tokens.ndim < 2:
        raise ContractViolation("context must be (length, dim), tokens (..., length, dim)")
    if (context.shape[1], tokens.shape[-1]) != (encoder.token_dim,) * 2:
        raise ContractViolation(
            f"context dim {context.shape[1]} and token dim {tokens.shape[-1]} "
            f"!= encoder token_dim {encoder.token_dim}"
        )
    length = context.shape[0] + tokens.shape[-2]
    if length == 0:
        raise ContractViolation("token sequence is empty")
    mean = (context.sum(axis=0) + tokens.sum(axis=-2)) / length
    if encoder.kind == PROJECTED_MEAN:
        # P times each mean as a column: the bits of P @ mean, unlike mean @ P.T
        return np.matmul(encoder.projection, mean[..., None])[..., 0]
    return mean


def encode_text_token_gradient(
    encoder: TextEncoder, grad_output: np.ndarray, sequence_length: int
) -> np.ndarray:
    """Pull embedding-space gradients back to one input token.

    ``grad_output`` is one gradient (embed_dim,) or a stack
    (..., embed_dim) of them.  encode_text is linear, so
    d(embedding)/d(token_j) = P / L for every position j (P = identity
    for identity-mean), and the pullback of a gradient g is P^T g / L,
    computed as (g @ P) / L for the whole stack at once.
    """
    if sequence_length < 1:
        raise ContractViolation("sequence_length must be >= 1")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.ndim < 1 or grad_output.shape[-1] != encoder.embed_dim:
        raise ContractViolation(
            f"grad_output shape {grad_output.shape} != (..., {encoder.embed_dim})"
        )
    if encoder.kind == PROJECTED_MEAN:
        return (grad_output @ encoder.projection) / sequence_length
    return grad_output / sequence_length


@dataclass
class ImageAdapter:
    """Trainable affine map from feature space into embedding space.

    With ``residual`` set (requires matching dims) the output is
    ``W x + b + x``, so the zero initialization is an exact identity and
    stage 2 starts from the untouched feature geometry.
    """

    weight: np.ndarray
    bias: np.ndarray
    residual: bool = True

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ContractViolation(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ContractViolation(
                f"bias shape {self.bias.shape} != ({self.weight.shape[0]},)"
            )
        if self.residual and self.weight.shape[0] != self.weight.shape[1]:
            raise ContractViolation(
                "residual adapter requires feature_dim == embed_dim, "
                f"got weight shape {self.weight.shape}"
            )

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weight.shape[1]


def build_adapter(feature_dim: int, embed_dim: int, residual: bool = True) -> ImageAdapter:
    """W = 0 with the residual path, else the (rectangular) identity; b = 0.

    A non-residual W = 0 would map every image to the zero vector.
    """
    _require_positive(feature_dim=feature_dim, embed_dim=embed_dim)
    weight = np.zeros((embed_dim, feature_dim)) if residual else np.eye(embed_dim, feature_dim)
    bias = np.zeros(embed_dim)
    return ImageAdapter(weight=weight, bias=bias, residual=residual)


def encode_image(adapter: ImageAdapter, features) -> np.ndarray:
    """Adapter output for one feature vector (F,) or each row of a (B, F) stack."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1:] != (adapter.feature_dim,) or features.ndim > 2:
        raise ContractViolation(
            f"features shape {features.shape} != ([B,] {adapter.feature_dim})"
        )
    if not np.isfinite(features).all():
        raise ContractViolation("features contain non-finite entries")
    return adapter_map(adapter.weight, adapter.bias, features, adapter.residual)


def adapter_map(weight, bias, features: np.ndarray, residual: bool) -> np.ndarray:
    """``W x + b``, plus ``x`` with the residual path: the adapter's map, unchecked.

    ``encode_image`` applies it to one adapter's (E, F) weight and (E,)
    bias.  Leading axes broadcast, so a stack of weights (S, E, F) or of
    biases (S, E) with one feature vector (F,) gives S outputs (S, E),
    each the bits of the call with that one weight or bias.
    """
    # W times each row as a column: the bits of W @ x, unlike x @ W.T
    out = np.matmul(weight, features[..., None])[..., 0] + bias
    if residual:
        out = out + features
    return out


def adapter_gradients(
    adapter: ImageAdapter, features: np.ndarray, grad_output: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dW, dL/db) given dL/d(output); the residual path adds nothing.

    For features (F,) and gradient (E,), or per row of (B, F) and (B, E).
    """
    features = np.asarray(features, dtype=np.float64)
    grad_output = np.asarray(grad_output, dtype=np.float64)
    expected = (features.shape[:-1] + (adapter.embed_dim,), (adapter.feature_dim,))
    if (grad_output.shape, features.shape[-1:]) != expected:
        raise ContractViolation(
            f"grad_output {grad_output.shape} and features {features.shape} do not fit "
            f"an ({adapter.embed_dim}, {adapter.feature_dim}) adapter"
        )
    return grad_output[..., :, None] * features[..., None, :], grad_output.copy()


@dataclass
class Model:
    """Bank + encoder + adapter + the similarity temperature, as one unit."""

    bank: DescriptorBank
    encoder: TextEncoder
    adapter: ImageAdapter
    temperature: float
    seed: int

    def __post_init__(self):
        check_temperature(self.temperature)
        _require_seed(self.seed)
        if self.bank.token_dim != self.encoder.token_dim:
            raise ContractViolation(
                f"bank token dim {self.bank.token_dim} != "
                f"encoder token dim {self.encoder.token_dim}"
            )
        if self.adapter.embed_dim != self.encoder.embed_dim:
            raise ContractViolation(
                f"adapter embed dim {self.adapter.embed_dim} != "
                f"encoder embed dim {self.encoder.embed_dim}"
            )

    @property
    def n_classes(self) -> int:
        return self.bank.n_classes

    @property
    def n_subclasses(self) -> int:
        return self.bank.n_subclasses


def build_model(
    n_classes: int,
    n_subclasses: int,
    n_tokens: int,
    token_dim: int,
    embed_dim: int,
    feature_dim: int,
    context_length: int,
    encoder_kind: str = IDENTITY_MEAN,
    residual: bool = True,
    temperature: float = 0.01,
    seed: int = 0,
) -> Model:
    bank = build_bank(n_classes, n_subclasses, n_tokens, token_dim, context_length, seed)
    encoder = build_text_encoder(encoder_kind, token_dim, embed_dim, seed)
    adapter = build_adapter(feature_dim, embed_dim, residual)
    return Model(
        bank=bank, encoder=encoder, adapter=adapter, temperature=temperature, seed=seed
    )


def bank_embeddings(bank: DescriptorBank, encoder: TextEncoder) -> np.ndarray:
    """Embed every descriptor; element (i, k) is encode_text of grid (i, k)."""
    return encode_text(encoder, bank.context, bank.tokens)


FORMAT_VERSION = 1
_CHECKPOINT_HEADER = re.compile(
    r"^metd-checkpoint v(\d+) n_classes=(\d+) n_subclasses=(\d+) n_tokens=(\d+) "
    r"token_dim=(\d+) embed_dim=(\d+) feature_dim=(\d+) context_length=(\d+) "
    r"encoder=(\S+) residual=(true|false) temperature=(\S+) seed=(-?\d+)$"
)


def read_records(path: str, header: re.Pattern, what: str, n_fields: int):
    """Stream a metd text file: the header's match, then (line_no, fields) per line.

    ``header``'s first group is the format version, which must be
    ``FORMAT_VERSION``.  Every later line must be nonblank and hold
    ``n_fields`` tab-separated fields.  Lines are read and yielded one at
    a time, so no file is ever held in memory whole; the loaders pass the
    float fields on, still one row at a time, to ``parse_float_rows``.
    Each line, the header too, is checked for UTF-8 first, as it is read.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file, missing header", line=1)
        if reason := _utf8_fault(first):
            raise ParseError(f"not UTF-8 text: {reason}", line=1)
        match = header.match(first.rstrip("\n"))
        if not match:
            raise ParseError(f"bad {what} header", line=1)
        if int(match.group(1)) != FORMAT_VERSION:
            raise ParseError(f"unsupported format version v{match.group(1)}", line=1)
        yield match
        for line_no, line in enumerate(fh, start=2):
            if not line.isascii() and (reason := _utf8_fault(line)):
                raise ParseError(f"not UTF-8 text: {reason}", line=line_no)
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                raise ParseError("blank line", line=line_no)
            if len(fields) != n_fields:
                raise ParseError(
                    f"expected {n_fields} tab-separated fields, got {len(fields)}",
                    line=line_no,
                )
            yield line_no, fields


def _utf8_fault(line: str) -> str | None:
    """Why ``line``, read with surrogateescape and with its line break, is not UTF-8, or None."""
    if line.isascii():
        return None
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.reason
    return None


def write_lines(path: str, lines):
    """Write each string of ``lines`` as one LF-terminated UTF-8 line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def format_floats(values: np.ndarray) -> str:
    """17 significant digits, so ``parse_float_rows`` reads back every float64's bits.

    The row is one ``%`` format of a ``"%.17g,..."`` template, which gives
    each value the text ``format(float(x), ".17g")`` gives it.
    """
    row = np.asarray(values, dtype=np.float64).tolist()
    return ",".join(["%.17g"] * len(row)) % tuple(row)


def parse_float_rows(rows, dim: int) -> np.ndarray:
    """The (R, dim) float64 array of R ``(line_no, text)`` rows of comma-separated values.

    The one float parser of every metd text file.  ``rows`` is pulled one
    row at a time into a single ``np.loadtxt`` call, whose C conversion is
    correctly rounded: each value gets the bits ``float()`` gives it.
    Spellings only ``float()`` takes (``1_000``, non-ASCII digits) are bad
    values.  A wrong value count or a bad value is a ParseError at its
    row's line as the rows stream; a non-finite value is one at its row's
    line once all rows are read.  Only the first row's values are counted
    here; loadtxt holds every later row to the first row's width, and when
    it fails on a row, that row's one count tells a wrong width from a bad
    value.  An exception raised by ``rows`` itself passes through unchanged.
    """
    lines = []  # the line of each row pulled so far
    last = ""  # the text of the last row pulled

    def fault(text: str) -> ParseError:
        """The error of the last row pulled, ``text``: a wrong value count, else a bad value."""
        count = text.count(",") + 1
        problem = "bad float value" if count == dim else f"expected {dim} values, got {count}"
        return ParseError(problem, line=lines[-1])

    def texts():
        nonlocal last
        for line_no, text in rows:
            lines.append(line_no)
            if not text:  # loadtxt would skip an empty line, not reject it
                raise fault(text)
            last = text
            yield text

    stream = texts()
    first = next(stream, None)
    if first is None:  # loadtxt warns on empty input
        return np.empty((0, dim))
    if first.count(",") + 1 != dim:
        raise fault(first)
    try:
        values = np.loadtxt(
            itertools.chain((first,), stream),
            delimiter=",", comments=None, dtype=np.float64, ndmin=2,
        )
    except ValueError as exc:
        if type(exc) is not ValueError:  # a ParseError from ``rows``
            raise
        # loadtxt converts each row as it pulls it, so the last row pulled is at fault.
        raise fault(last) from None
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite value", line=lines[int(np.argmin(finite))])
    return values


def _parse_value(text: str, shape: tuple, line_no: int) -> np.ndarray:
    """A vector, or a matrix whose rows are joined with ``;``."""
    if len(shape) == 1:
        return parse_float_rows([(line_no, text)], shape[0])[0]
    parts = text.split(";")
    if len(parts) != shape[0]:
        raise ParseError(f"expected {shape[0]} rows, got {len(parts)}", line=line_no)
    return parse_float_rows(((line_no, part) for part in parts), shape[1])


def _checkpoint_layout(header: re.Match):
    """Yield the (key, shape) of every line after a checkpoint header, in file order.

    The header's dimensions are the file's claim, so no key is made before its line is read.
    """
    n, k, m, token_dim, embed_dim, feature_dim, context_length = map(int, header.groups()[1:8])
    for i in range(n):  # not itertools.product, which would hold each range as a tuple
        for kk in range(k):
            for mm in range(m):
                yield f"bank.tokens[{i}][{kk}][{mm}]", (token_dim,)
    yield from ((f"bank.context[{c}]", (token_dim,)) for c in range(context_length))
    yield from (("adapter.weight", (embed_dim, feature_dim)), ("adapter.bias", (embed_dim,)))
    if header.group(9) == PROJECTED_MEAN:
        yield "encoder.projection", (embed_dim, token_dim)


def save_checkpoint(model: Model, path: str):
    """Serialize a model losslessly; same model in, byte-identical file out."""
    bank = model.bank
    header = (
        f"metd-checkpoint v{FORMAT_VERSION} "
        f"n_classes={bank.n_classes} n_subclasses={bank.n_subclasses} "
        f"n_tokens={bank.n_tokens} token_dim={bank.token_dim} "
        f"embed_dim={model.encoder.embed_dim} "
        f"feature_dim={model.adapter.feature_dim} "
        f"context_length={bank.context_length} "
        f"encoder={model.encoder.kind} "
        f"residual={'true' if model.adapter.residual else 'false'} "
        f"temperature={format(model.temperature, '.17g')} "
        f"seed={model.seed}"
    )
    values = [
        *bank.tokens.reshape(-1, bank.token_dim),
        *bank.context,
        model.adapter.weight,
        model.adapter.bias,
        model.encoder.projection,  # None, and cut by zip, for identity-mean
    ]
    layout = _checkpoint_layout(_CHECKPOINT_HEADER.match(header))
    write_lines(path, itertools.chain([header], (
        f"{key}\t{';'.join(format_floats(row) for row in np.atleast_2d(value))}"
        for (key, _), value in zip(layout, values)
    )))


def load_checkpoint(path: str) -> Model:
    """Read a checkpoint whose lines follow ``_checkpoint_layout`` in order.

    A header that ``build_model`` would refuse (a zero dimension, a bad
    temperature, a negative seed, dims the encoder or adapter cannot take) is a ParseError
    at line 1, and the first line that is out of place, missing or extra
    is one at its line number.
    """
    records = read_records(path, _CHECKPOINT_HEADER, "checkpoint", 2)
    header = next(records)
    n, k, m, token_dim, embed_dim, feature_dim, context_length = map(int, header.groups()[1:8])
    try:
        _require_positive(
            n_classes=n, n_subclasses=k, n_tokens=m, token_dim=token_dim,
            embed_dim=embed_dim, feature_dim=feature_dim, context_length=context_length,
        )
    except ContractViolation as exc:
        raise ParseError(str(exc), line=1) from exc
    kind = header.group(9)
    if kind not in ENCODER_KINDS:
        raise ParseError(f"unknown encoder kind {kind!r}", line=1)
    try:
        temperature = float(header.group(11))
    except ValueError:
        raise ParseError("bad temperature", line=1) from None
    values = []
    for line_no, (key, shape) in enumerate(_checkpoint_layout(header), start=2):
        record = next(records, None)
        if record is None:
            raise ParseError(f"missing key {key!r}", line=line_no)
        found, text = record[1]
        if found != key:
            raise ParseError(f"expected key {key!r}, got {found!r}", line=line_no)
        values.append(_parse_value(text, shape, line_no))
    for line_no, (found, _) in records:
        raise ParseError(f"unexpected key {found!r}", line=line_no)
    projection = values.pop() if kind == PROJECTED_MEAN else None
    n_rows = n * k * m
    try:
        bank = DescriptorBank(
            tokens=np.array(values[:n_rows]).reshape(n, k, m, token_dim),
            context=np.array(values[n_rows:-2]).reshape(context_length, token_dim),
        )
        encoder = TextEncoder(
            kind=kind, token_dim=token_dim, embed_dim=embed_dim, projection=projection
        )
        adapter = ImageAdapter(
            weight=values[-2], bias=values[-1], residual=header.group(10) == "true"
        )
        return Model(
            bank=bank,
            encoder=encoder,
            adapter=adapter,
            temperature=temperature,
            seed=int(header.group(12)),
        )
    except ContractViolation as exc:
        # The rows were read to the header's shapes, so any breach left is
        # the header's: its temperature or seed, or dims the encoder or adapter refuse.
        raise ParseError(str(exc), line=1) from exc
