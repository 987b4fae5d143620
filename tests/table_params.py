"""One layer's parameters, drawn from the rows of the model's parameter
table that name them, in the order ``NnmaModel.create`` draws them: the
same values a model built from the same generator would start from,
for tests of one layer without a model."""

from nnma.attention import ArgAttentionParams, AttentionLevelParams
from nnma.model import draw, parameter_table
from nnma.recurrent import BiLstmParams, LstmParams
from nnma.rng import Rng


def drawn(cls, prefix: str, rng: Rng, d_e: int = 1, d: int = 1, d_m: int = 1, k: int = 1):
    """``cls`` built from the table rows under ``prefix``, each drawn from ``rng``."""
    rows = [spec for spec in parameter_table(d_e, d, d_m, k, n=2, v=1)
            if spec.name.startswith(prefix + ".")]
    return cls.named(prefix, {spec.name: draw(spec, rng) for spec in rows})


def lstm(input_dim: int, hidden_dim: int, rng: Rng) -> LstmParams:
    return drawn(LstmParams, "enc1.forward", rng, d_e=input_dim, d=hidden_dim)


def bilstm(input_dim: int, hidden_dim: int, rng: Rng) -> BiLstmParams:
    return drawn(BiLstmParams, "enc1", rng, d_e=input_dim, d=hidden_dim)


def arg_attention(d: int, d_m: int, rng: Rng) -> ArgAttentionParams:
    return drawn(ArgAttentionParams, "level1.arg1", rng, d=d, d_m=d_m)


def attention_level(level: int, d: int, d_m: int, rng: Rng) -> AttentionLevelParams:
    return drawn(AttentionLevelParams, f"level{level}", rng, d=d, d_m=d_m, k=level)
