"""One layer's parameters, drawn from the rows of the model's parameter
table that name them, in the order ``NnmaModel.create`` draws them: the
same values a model built from the same generator would start from,
for tests of one layer without a model. The rows are laid out in one
``FlatParams`` buffer in table order, as a model lays out its network
rows, so the layers write their gradients as they do in training."""

import math

import numpy as np

from nnma.model import draw, parameter_table
from nnma.rng import Rng
from nnma.tensor import FlatParams, ParamGroup, runs


def drawn(prefix: str, rng: Rng, d_e: int = 1, d: int = 1, d_m: int = 1,
          k: int = 1) -> ParamGroup:
    """The group of table rows under ``prefix`` (``enc1``, ``enc1.forward``,
    ``level2``, ``level1.arg1``), each drawn from ``rng``."""
    return laid_out([prefix], rng, d_e=d_e, d=d, d_m=d_m, k=k)[0]


def laid_out(prefixes: list[str], rng: Rng | None, d_e: int = 1, d: int = 1,
             d_m: int = 1, k: int = 1) -> list[ParamGroup]:
    """One group per prefix over one layout of every table row under any
    of ``prefixes``, in table order: ``["enc1", "enc2"]`` gives a model's
    two encoders, one after the other. Each row is drawn from ``rng`` in
    that order (the same values as drawing each prefix's rows in turn,
    when the prefixes name rows of the same shapes in table order); with
    no ``rng`` every row is zero."""
    specs = [spec for spec in parameter_table(d_e, d, d_m, k, n=2, v=1)
             if any(spec.name.startswith(p + ".") for p in prefixes)]
    flat = FlatParams(np.zeros(sum(math.prod(spec.shape) for spec in specs)),
                      [spec.shape for spec in specs])
    if rng is not None:
        drawn = [(spec, leaf.data) for spec, leaf in zip(specs, flat.leaves)
                 if spec.init != "zeros"]
        units = rng.uniform_matrix(1, sum(out.size for _, out in drawn), 0.0, 1.0)
        for (spec, out), run in zip(drawn, runs(units[0], [spec.shape for spec, _ in drawn])):
            draw(spec, run, out)
    named = {spec.name: leaf for spec, leaf in zip(specs, flat.leaves)}
    return [ParamGroup(p, named) for p in prefixes]
