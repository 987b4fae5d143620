"""One layer's parameters, drawn from the rows of the model's parameter
table that name them, in the order ``NnmaModel.create`` draws them: the
same values a model built from the same generator would start from,
for tests of one layer without a model."""

from nnma.model import draw, parameter_table
from nnma.rng import Rng
from nnma.tensor import ParamGroup, Tensor


def drawn(prefix: str, rng: Rng, d_e: int = 1, d: int = 1, d_m: int = 1,
          k: int = 1) -> ParamGroup:
    """The group of table rows under ``prefix`` (``enc1``, ``enc1.forward``,
    ``level2``, ``level1.arg1``), each drawn from ``rng``."""
    named = {}
    for spec in parameter_table(d_e, d, d_m, k, n=2, v=1):
        if spec.name.startswith(prefix + "."):
            named[spec.name] = Tensor.zeros(*spec.shape, requires_grad=True)
            draw(spec, rng, named[spec.name].data)
    return ParamGroup(prefix, named)
