"""Descriptor bank, text encoder, image adapter, and checkpoint round trips."""

import re
import tracemalloc

import numpy as np
import pytest

from metd.data import EmbeddingDataset, Sample, oversample_balance
from metd.errors import ContractViolation, ParseError
from metd.harness import default_benchmark, distortion_matrix
from metd.model import (
    IDENTITY_MEAN,
    PROJECTED_MEAN,
    DescriptorBank,
    Model,
    adapter_gradients,
    bank_embeddings,
    build_adapter,
    build_bank,
    build_model,
    build_text_encoder,
    encode_image,
    encode_text,
    encode_text_token_gradient,
    load_checkpoint,
    save_checkpoint,
)
from metd.training import random_fd_instance


def _randomized_model(seed, encoder_kind=IDENTITY_MEAN, residual=True):
    token_dim = 5
    embed_dim = 5 if encoder_kind == IDENTITY_MEAN else 4
    feature_dim = embed_dim if residual else 6
    model = build_model(
        n_classes=3,
        n_subclasses=2,
        n_tokens=2,
        token_dim=token_dim,
        embed_dim=embed_dim,
        feature_dim=feature_dim,
        context_length=3,
        encoder_kind=encoder_kind,
        residual=residual,
        temperature=0.0625,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    model.bank.tokens[:] = rng.normal(size=model.bank.tokens.shape)
    model.bank.context[:] = rng.normal(size=model.bank.context.shape)
    model.adapter.weight[:] = rng.normal(size=model.adapter.weight.shape)
    model.adapter.bias[:] = rng.normal(size=model.adapter.bias.shape)
    return model


def test_build_bank_shapes_and_determinism():
    bank = build_bank(3, 2, 4, 8, 5, seed=42)
    assert bank.tokens.shape == (3, 2, 4, 8)
    assert bank.context.shape == (5, 8)
    again = build_bank(3, 2, 4, 8, 5, seed=42)
    assert np.array_equal(bank.tokens, again.tokens)
    assert np.array_equal(bank.context, again.context)
    other = build_bank(3, 2, 4, 8, 5, seed=43)
    assert not np.array_equal(bank.tokens, other.tokens)


def test_bank_validation():
    with pytest.raises(ContractViolation):
        DescriptorBank(tokens=np.zeros((2, 2, 2)), context=np.zeros((1, 2)))
    with pytest.raises(ContractViolation):
        DescriptorBank(tokens=np.zeros((2, 2, 2, 3)), context=np.zeros((1, 4)))
    bad = np.zeros((2, 2, 2, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ContractViolation):
        DescriptorBank(tokens=bad, context=np.zeros((1, 3)))
    with pytest.raises(ContractViolation):
        build_bank(0, 1, 1, 1, 1, seed=0)


def test_encoder_kind_constraints():
    with pytest.raises(ContractViolation):
        build_text_encoder(IDENTITY_MEAN, 4, 5, seed=0)
    with pytest.raises(ContractViolation):
        build_text_encoder("mystery", 4, 4, seed=0)
    projected = build_text_encoder(PROJECTED_MEAN, 6, 4, seed=0)
    assert projected.projection.shape == (4, 6)
    again = build_text_encoder(PROJECTED_MEAN, 6, 4, seed=0)
    assert np.array_equal(projected.projection, again.projection)


def test_encode_text_is_sequence_mean():
    rng = np.random.default_rng(20)
    encoder = build_text_encoder(IDENTITY_MEAN, 6, 6, seed=0)
    context = rng.normal(size=(3, 6))
    tokens = rng.normal(size=(4, 6))
    expected = (context.sum(axis=0) + tokens.sum(axis=0)) / 7
    np.testing.assert_allclose(
        encode_text(encoder, context, tokens), expected, rtol=0, atol=0
    )
    projected = build_text_encoder(PROJECTED_MEAN, 6, 4, seed=1)
    np.testing.assert_allclose(
        encode_text(projected, context, tokens),
        projected.projection @ expected,
        rtol=0,
        atol=0,
    )


def test_encode_text_empty_context_and_errors():
    rng = np.random.default_rng(21)
    encoder = build_text_encoder(IDENTITY_MEAN, 4, 4, seed=0)
    tokens = rng.normal(size=(2, 4))
    np.testing.assert_allclose(
        encode_text(encoder, np.zeros((0, 4)), tokens),
        tokens.mean(axis=0),
        rtol=0,
        atol=1e-15,
    )
    with pytest.raises(ContractViolation):
        encode_text(encoder, np.zeros((0, 4)), np.zeros((0, 4)))
    with pytest.raises(ContractViolation):
        encode_text(encoder, np.zeros((1, 3)), tokens)
    with pytest.raises(ContractViolation):
        encode_text(encoder, np.zeros((1, 5)), np.zeros((1, 5)))


def test_encode_text_token_gradient_matches_central_differences():
    # The encoder is linear, so the analytic per-token pullback must match
    # finite differences of any linear functional to near machine precision.
    rng = np.random.default_rng(22)
    h = 1e-5
    for kind, token_dim, embed_dim in ((IDENTITY_MEAN, 5, 5), (PROJECTED_MEAN, 5, 3)):
        encoder = build_text_encoder(kind, token_dim, embed_dim, seed=3)
        context = rng.normal(size=(2, token_dim))
        tokens = rng.normal(size=(3, token_dim))
        length = context.shape[0] + tokens.shape[0]
        # One gradient, then a (2, 3, embed_dim) stack pulled back in one call.
        for probes in (rng.normal(size=embed_dim), rng.normal(size=(2, 3, embed_dim))):
            analytic = encode_text_token_gradient(encoder, probes, length)
            assert analytic.shape == probes.shape[:-1] + (token_dim,)
            rows = zip(analytic.reshape(-1, token_dim), probes.reshape(-1, embed_dim))
            for pulled, probe in rows:
                for position in range(tokens.shape[0]):
                    for idx in range(token_dim):
                        bumped = tokens.copy()
                        bumped[position, idx] += h
                        dipped = tokens.copy()
                        dipped[position, idx] -= h
                        numeric = (
                            probe @ encode_text(encoder, context, bumped)
                            - probe @ encode_text(encoder, context, dipped)
                        ) / (2 * h)
                        np.testing.assert_allclose(pulled[idx], numeric, rtol=1e-6, atol=1e-9)


def test_zero_initialized_residual_adapter_is_exact_identity():
    adapter = build_adapter(7, 7, residual=True)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = rng.normal(size=7)
        assert np.array_equal(encode_image(adapter, x), x)


def test_adapter_gradients_are_outer_product_and_copy():
    rng = np.random.default_rng(24)
    adapter = build_adapter(4, 3, residual=False)
    features = rng.normal(size=4)
    grad_out = rng.normal(size=3)
    grad_w, grad_b = adapter_gradients(adapter, features, grad_out)
    np.testing.assert_allclose(grad_w, np.outer(grad_out, features), rtol=0, atol=0)
    np.testing.assert_allclose(grad_b, grad_out, rtol=0, atol=0)
    grad_b[0] = 99.0  # returned bias gradient must not alias the input
    assert grad_out[0] != 99.0


def test_adapter_validation():
    with pytest.raises(ContractViolation):
        build_adapter(4, 3, residual=True)
    adapter = build_adapter(4, 4)
    with pytest.raises(ContractViolation):
        encode_image(adapter, np.zeros(3))
    with pytest.raises(ContractViolation):
        encode_image(adapter, np.array([1.0, np.nan, 0.0, 0.0]))


def test_model_validation():
    with pytest.raises(ContractViolation):
        build_model(
            n_classes=2,
            n_subclasses=1,
            n_tokens=1,
            token_dim=4,
            embed_dim=4,
            feature_dim=4,
            context_length=1,
            temperature=0.0,
        )
    bank = build_bank(2, 1, 1, 4, 1, seed=0)
    encoder = build_text_encoder(IDENTITY_MEAN, 5, 5, seed=0)
    adapter = build_adapter(5, 5)
    with pytest.raises(ContractViolation):
        Model(bank=bank, encoder=encoder, adapter=adapter, temperature=0.1, seed=0)
    # Positive and finite, but its reciprocal, which scales every logit, is not.
    model = _randomized_model(3)
    with pytest.raises(ContractViolation, match="temperature 1e-320 is too small"):
        Model(bank=model.bank, encoder=model.encoder, adapter=model.adapter,
              temperature=1e-320, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_the_builders_refuse_a_negative_seed(seed):
    # default_rng takes no negative entry: the builders, and every other
    # function that takes a seed, name the seed instead.
    message = f"seed must be a nonnegative integer, got {seed}"
    with pytest.raises(ContractViolation, match=message):
        build_bank(2, 1, 1, 4, 1, seed=seed)
    for kind in (IDENTITY_MEAN, PROJECTED_MEAN):
        with pytest.raises(ContractViolation, match=message):
            build_text_encoder(kind, 4, 4, seed=seed)
    with pytest.raises(ContractViolation, match=message):
        build_model(2, 1, 1, 4, 4, 4, 1, seed=seed)
    assert build_bank(2, 1, 1, 4, 1, seed=0).tokens.shape == (2, 1, 1, 4)
    model = build_model(2, 1, 1, 4, 4, 4, 1, seed=0)
    rows = [Sample(np.ones(2), label) for label in (0, 0, 1)]
    seeded = (
        lambda: Model(model.bank, model.encoder, model.adapter, model.temperature, seed),
        lambda: random_fd_instance(seed=seed, stage=1),
        lambda: default_benchmark(seed),
        lambda: distortion_matrix(4, seed=seed),
        lambda: oversample_balance(EmbeddingDataset(rows, feature_dim=2, n_classes=2), seed),
    )
    for call in seeded:
        with pytest.raises(ContractViolation, match=message):
            call()


def test_bank_embeddings_matches_per_descriptor_encoding():
    for encoder_kind, embed_dim in ((IDENTITY_MEAN, 5), (PROJECTED_MEAN, 4)):
        model = _randomized_model(3, encoder_kind=encoder_kind)
        stack = bank_embeddings(model.bank, model.encoder)
        assert stack.shape == (3, 2, embed_dim)
        for i in range(3):
            for k in range(2):
                np.testing.assert_allclose(
                    stack[i, k],
                    encode_text(model.encoder, model.bank.context, model.bank.tokens[i, k]),
                    rtol=0,
                    atol=0,
                )


@pytest.mark.parametrize(
    "encoder_kind,residual",
    [
        (IDENTITY_MEAN, True),
        (IDENTITY_MEAN, False),
        (PROJECTED_MEAN, True),
        (PROJECTED_MEAN, False),
    ],
)
def test_checkpoint_round_trip_bit_identical(tmp_path, encoder_kind, residual):
    model = _randomized_model(4, encoder_kind=encoder_kind, residual=residual)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert np.array_equal(loaded.bank.tokens, model.bank.tokens)
    assert np.array_equal(loaded.bank.context, model.bank.context)
    assert np.array_equal(loaded.adapter.weight, model.adapter.weight)
    assert np.array_equal(loaded.adapter.bias, model.adapter.bias)
    assert loaded.adapter.residual == model.adapter.residual
    assert loaded.encoder.kind == model.encoder.kind
    if model.encoder.projection is not None:
        assert np.array_equal(loaded.encoder.projection, model.encoder.projection)
    assert loaded.temperature == model.temperature
    assert loaded.seed == model.seed
    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_checkpoint_rejects_malformed(tmp_path):
    model = _randomized_model(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()

    def write(name, content):
        p = tmp_path / name
        p.write_text(content + "\n")
        return str(p)

    empty = tmp_path / "empty.ckpt"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_checkpoint(str(empty))
    with pytest.raises(ParseError):
        load_checkpoint(write("header.ckpt", "not a checkpoint"))
    with pytest.raises(ParseError):
        load_checkpoint(
            write("version.ckpt", lines[0].replace("v1 ", "v2 ") + "\n" + "\n".join(lines[1:]))
        )
    with pytest.raises(ParseError):
        load_checkpoint(write("dupe.ckpt", "\n".join(lines + [lines[1]])))
    with pytest.raises(ParseError):
        load_checkpoint(write("missing.ckpt", "\n".join(lines[:-2] + [lines[-1]])))
    out_of_range = lines[1].replace("bank.tokens[0][0][0]", "bank.tokens[9][0][0]")
    with pytest.raises(ParseError):
        load_checkpoint(write("range.ckpt", "\n".join([lines[0], out_of_range] + lines[2:])))
    with pytest.raises(ParseError):
        load_checkpoint(write("junk.ckpt", "\n".join(lines + ["mystery.key\t1.0"])))
    projection_row = "encoder.projection\t" + ";".join(
        ",".join("0.1" for _ in range(5)) for _ in range(5)
    )
    with pytest.raises(ParseError):
        load_checkpoint(write("extra.ckpt", "\n".join(lines + [projection_row])))


@pytest.mark.parametrize(
    "encoder_kind,residual",
    [
        (IDENTITY_MEAN, True),
        (IDENTITY_MEAN, False),
        (PROJECTED_MEAN, True),
        (PROJECTED_MEAN, False),
    ],
)
def test_checkpoint_mutations_fail_at_the_faulty_line(tmp_path, encoder_kind, residual):
    model = _randomized_model(7, encoder_kind=encoder_kind, residual=residual)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()
    past_end = len(lines) + 1  # the line number an appended line gets

    def expect(mutated, line):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(mutated) + "\n")
        with pytest.raises(ParseError) as info:
            load_checkpoint(str(bad))
        assert info.value.line == line

    # lines[j] is line j + 1 of the file; lines[0] is the header.
    for j in range(1, len(lines) - 1):
        expect(lines[:j] + [lines[j + 1], lines[j]] + lines[j + 2 :], j + 1)  # swapped
    for j in range(1, len(lines)):
        expect(lines[: j + 1] + lines[j:], j + 2)  # duplicated
        expect(lines[:j] + lines[j + 1 :], j + 1)  # dropped
        key, value = lines[j].split("\t")
        expect(lines[:j] + [f"{key}x\t{value}"] + lines[j + 1 :], j + 1)  # renamed
    expect(lines + ["mystery.key\t1.0"], past_end)
    if encoder_kind == IDENTITY_MEAN:
        projection = "encoder.projection\t" + ";".join(["0.1,0.1,0.1,0.1,0.1"] * 5)
        expect(lines + [projection], past_end)
    w = next(j for j, line in enumerate(lines) if line.startswith("adapter.weight\t"))
    rows = lines[w].split(";")
    for wrong in (rows[:-1], rows + rows[-1:]):
        expect(lines[:w] + [";".join(wrong)] + lines[w + 1 :], w + 1)


def test_checkpoint_parse_error_carries_line_number(tmp_path):
    model = _randomized_model(6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()
    lines[2] = lines[2].split("\t")[0] + "\tnot,a,number,at,all"
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as excinfo:
        load_checkpoint(str(bad))
    assert excinfo.value.line == 3


@pytest.mark.parametrize("fault", ["malformed", "too-few", "inf"])
@pytest.mark.parametrize("key", ["adapter.weight", "bank.tokens[1][0][1]"])
def test_a_faulty_value_names_its_checkpoint_line(tmp_path, key, fault):
    # A matrix's rows share its line: a fault in the middle row of
    # adapter.weight (5 rows of 6 values) is reported at that line.
    model = _randomized_model(9, residual=False)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()
    j = next(j for j, line in enumerate(lines) if line.startswith(key + "\t"))
    name, value = lines[j].split("\t")
    rows = [row.split(",") for row in value.split(";")]
    row = rows[len(rows) // 2]
    width = len(row)
    if fault == "malformed":
        row[1], problem = "0.5.5", "bad float value"
    elif fault == "too-few":
        row.pop()
        problem = f"expected {width} values, got {width - 1}"
    else:
        row[1], problem = "-inf", "non-finite value"
    lines[j] = name + "\t" + ";".join(",".join(r) for r in rows)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        load_checkpoint(str(path))
    assert str(info.value) == f"line {j + 1}: {problem}"


# A whole float or a bool is not a dimension: each builder names the
# field instead of leaving NumPy to fail later.  A NumPy integer is one.
NOT_DIMENSIONS = [3.0, True]
BANK_DIMS = dict(n_classes=3, n_subclasses=2, n_tokens=2, token_dim=4, context_length=3)


@pytest.mark.parametrize("value", NOT_DIMENSIONS)
@pytest.mark.parametrize("field", sorted(BANK_DIMS))
def test_build_bank_rejects_a_dimension_that_is_not_an_integer(field, value):
    with pytest.raises(ContractViolation, match=f"{field} must be a positive integer"):
        build_bank(**{**BANK_DIMS, field: value}, seed=0)
    build_bank(**{**BANK_DIMS, field: np.int64(BANK_DIMS[field])}, seed=0)


@pytest.mark.parametrize("value", NOT_DIMENSIONS)
@pytest.mark.parametrize("field", ["token_dim", "embed_dim"])
def test_build_text_encoder_rejects_a_dimension_that_is_not_an_integer(field, value):
    dims = dict(token_dim=4, embed_dim=3)
    with pytest.raises(ContractViolation, match=f"{field} must be a positive integer"):
        build_text_encoder(PROJECTED_MEAN, **{**dims, field: value}, seed=0)
    build_text_encoder(PROJECTED_MEAN, **{**dims, field: np.int64(dims[field])}, seed=0)


@pytest.mark.parametrize("value", NOT_DIMENSIONS)
@pytest.mark.parametrize("field", ["feature_dim", "embed_dim"])
def test_build_adapter_rejects_a_dimension_that_is_not_an_integer(field, value):
    dims = dict(feature_dim=4, embed_dim=4)
    with pytest.raises(ContractViolation, match=f"{field} must be a positive integer"):
        build_adapter(**{**dims, field: value})
    build_adapter(**{**dims, field: np.int64(dims[field])})


@pytest.mark.parametrize("value", NOT_DIMENSIONS)
@pytest.mark.parametrize("field", ["n_classes", "n_subclasses", "feature_dim"])
def test_build_model_rejects_a_dimension_that_is_not_an_integer(field, value):
    dims = dict(n_classes=3, n_subclasses=2, n_tokens=2, token_dim=4, embed_dim=4,
                feature_dim=4, context_length=3)
    with pytest.raises(ContractViolation, match=f"{field} must be a positive integer"):
        build_model(**{**dims, field: value})
    build_model(**{**dims, field: np.int64(dims[field])})


@pytest.mark.parametrize(
    "dimension",
    ["n_classes", "n_subclasses", "n_tokens", "token_dim", "embed_dim", "feature_dim",
     "context_length"],
)
def test_checkpoint_header_rejects_a_zero_dimension(tmp_path, dimension):
    # build_model refuses every zero dimension, so the header does too,
    # before any row is read.
    model = _randomized_model(8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()
    lines[0], count = re.subn(rf"\b{dimension}=\d+", f"{dimension}=0", lines[0])
    assert count == 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"{dimension} must be a positive integer") as info:
        load_checkpoint(str(path))
    assert info.value.line == 1


def test_a_header_that_claims_a_million_token_vectors_costs_no_list_of_them(tmp_path):
    # A header's dimensions are the file's claim: a header-only file that
    # claims 1,000,000 token vectors is refused at line 2, and loading it
    # builds no key list of that size.
    path = tmp_path / "model.ckpt"
    save_checkpoint(_randomized_model(8), str(path))
    header, count = re.subn(r"n_classes=\d+ n_subclasses=\d+ n_tokens=\d+",
                            "n_classes=1000000 n_subclasses=1 n_tokens=1",
                            path.read_text().splitlines()[0])
    assert count == 1
    path.write_text(header + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 2: missing key 'bank.tokens[0][0][0]'"
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "encoder_kind, residual, field, value, message",
    [
        (IDENTITY_MEAN, True, "temperature", "-1", "temperature must be > 0"),
        (IDENTITY_MEAN, True, "temperature", "nan", "temperature must be > 0"),
        (IDENTITY_MEAN, True, "temperature", "inf", "temperature must be > 0"),
        (IDENTITY_MEAN, True, "temperature", "1e-320", "1/temperature overflows"),
        (IDENTITY_MEAN, True, "seed", "-1", "seed must be a nonnegative integer, got -1"),
        (IDENTITY_MEAN, False, "residual", "true",
         "residual adapter requires feature_dim == embed_dim"),
        (PROJECTED_MEAN, False, "encoder", IDENTITY_MEAN,
         "identity-mean requires token_dim == embed_dim"),
    ],
    ids=["temperature-negative", "temperature-nan", "temperature-inf", "temperature-tiny",
         "seed-negative", "residual-dims", "identity-mean-dims"],
)
def test_checkpoint_header_rejects_what_build_model_refuses(
    tmp_path, encoder_kind, residual, field, value, message
):
    # Found only once the model is built, after the rows are read, but
    # still the header's fault: line 1.
    model = _randomized_model(8, encoder_kind=encoder_kind, residual=residual)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()
    lines[0], count = re.subn(rf"\b{field}=\S+", f"{field}={value}", lines[0])
    assert count == 1
    if encoder_kind == PROJECTED_MEAN:
        # An identity-mean header lays out no projection line.
        assert lines.pop().startswith("encoder.projection\t")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as info:
        load_checkpoint(str(path))
    assert info.value.line == 1
