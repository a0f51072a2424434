"""Adam optimization, the training loop, and the whole-model gradient check."""

from __future__ import annotations

import contextlib
import gc
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .metrics import metrics_from_predictions
from .model import Model, ModelParams
from .numeric import Rng, Tensor, finite_diff_grad


# Adam runs over the flat buffers in blocks of this many entries: its two
# scratch vectors stay small (whole-buffer ones would add 2 x 2.8 MB of
# resident memory at a 5k vocab), and each block's operands stay in cache.
ADAM_BLOCK = 1 << 14
# Kingma & Ba 2015's defaults, used unchanged.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First and second moments over the whole flat parameter vector."""

    m: Tensor
    v: Tensor
    t: int = 0

    def __post_init__(self):
        block = min(self.m.size, ADAM_BLOCK)
        self.scratch = (np.empty(block), np.empty(block))

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros(params.total_size()), v=np.zeros(params.total_size()))


def adam_step(params: ModelParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of every parameter from params.grad, in
    place, with b1, b2 and eps the module's ADAM_BETA1, ADAM_BETA2, ADAM_EPS.

    With c1 = 1 - b1^t and c2 = 1 - b2^t, the textbook update
    theta -= lr * (m/c1) / (sqrt(v/c2) + eps) equals
    theta -= step * m / (sqrt(v) + eps_hat), where step = lr * sqrt(c2) / c1
    and eps_hat = eps * sqrt(c2): the reordering of Kingma & Ba 2015, Adam,
    section 2. The bias corrections are then two scalars, not two passes
    over the buffers; results differ from the textbook order only by
    rounding. The update runs over the flat buffers, a block at a time:
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; then the step above.
    """
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    state.t += 1
    c1, c2 = 1 - beta1 ** state.t, 1 - beta2 ** state.t
    step, eps_hat = lr * math.sqrt(c2) / c1, eps * math.sqrt(c2)
    theta = params.flat
    for lo in range(0, theta.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, theta.size)
        m, v, gb = state.m[lo:hi], state.v[lo:hi], params.grad[lo:hi]
        s, u = (a[:hi - lo] for a in state.scratch)
        m *= beta1
        np.multiply(gb, 1 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(gb, 1 - beta2, out=s)
        s *= gb
        v += s
        np.sqrt(v, out=u)
        u += eps_hat
        np.multiply(m, step, out=s)
        s /= u
        theta[lo:hi] -= s


def batch_grads(model: Model, preps, dropout_rng: Rng | None = None):
    """Loss value of one batch (cross-entropy + l2 once, dropout as in
    Model.forward_var), with its gradient left in model.params.grad, and
    that gradient's views by tensor name.

    Each call zeroes model.params.grad before backward() refills it: copy
    the views to keep them past the next step. backward() runs its Batched
    groups only for several examples (see autodiff.backward): one example's
    nodes run one by one, as the reverse topological sort has them.
    """
    model.params.grad.fill(0.0)
    loss = model.batch_loss_var(preps, dropout_rng)
    ad.backward(loss, grouped=len(preps) > 1)
    return float(loss.value), {name: leaf.grad for name, leaf in model.params.leaves().items()}


@contextlib.contextmanager
def gc_paused():
    """Cyclic garbage collection off inside the block, and back to its
    previous state on exit, also on an exception.

    A training step allocates thousands of tape objects, and the collections
    they would trigger traverse the whole heap. The tape holds no reference
    cycles (a node refers only to its parents), so reference counting frees
    it when batch_grads returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TrainingDiverged(ArithmeticError):
    """A training step produced a non-finite loss or gradient.

    epoch and step (within the epoch) count from 1; tensor names the first
    parameter, in layout order, whose gradient has a non-finite entry, or is
    None when every entry is finite (a non-finite loss, or a gradient sum
    that overflows).
    """

    def __init__(self, epoch: int, step: int, loss: float, tensor: str | None):
        self.epoch, self.step, self.loss, self.tensor = epoch, step, loss, tensor
        where = (f"first non-finite gradient: {tensor}" if tensor is not None
                 else "every gradient entry is finite")
        super().__init__(f"training diverged at epoch {epoch}, step {step}: "
                         f"loss {loss}, {where}")


def check_finite(loss: float, params: ModelParams, epoch: int, step: int) -> None:
    """Raise TrainingDiverged unless the loss and every entry of params.grad
    are finite.

    The normal path costs one sum over the flat gradient buffer: a NaN or an
    infinity in any entry makes the sum non-finite. Only then are the
    tensors' spans scanned, to name the first bad one.
    """
    if math.isfinite(loss) and math.isfinite(params.grad.sum()):
        return
    raise TrainingDiverged(epoch, step, loss, params.first_non_finite(params.grad))


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    dev_accuracy: float | None = None
    dev_macro_f1: float | None = None


def train(model: Model, train_examples, dev_examples=None, *,
          epochs: int | None = None, shuffle: bool = True, on_epoch=None) -> list[EpochLog]:
    """Per-example (or accumulated-batch) Adam training, fully seeded.

    on_epoch(EpochLog) fires after each epoch; when it returns a true value,
    training stops after that epoch. A step whose loss or gradient is not
    finite raises TrainingDiverged before its update, leaving the parameters
    at their last finite values.
    """
    cfg = model.config
    epochs = cfg.epochs if epochs is None else epochs
    # Each set is prepared once; the tape and the dev evaluations of every
    # epoch read the same Prepared objects.
    with gc_paused():
        preps = [model.prepare(ex) for ex in train_examples]
        dev_preps = [model.prepare(ex) for ex in dev_examples] if dev_examples else []
    if not preps:
        raise ValueError("train: empty training set")
    state = AdamState.for_params(model.params)
    order_rng = Rng(cfg.seed + 1)
    dropout_rng = Rng(cfg.seed + 2) if cfg.dropout > 0 else None
    history: list[EpochLog] = []

    for epoch in range(1, epochs + 1):
        order = order_rng.permutation(len(preps)) if shuffle else np.arange(len(preps))
        total = 0.0
        for step, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = [preps[i] for i in order[start:start + cfg.batch_size]]
            with gc_paused():
                # check_finite names a non-finite step, so numpy need not warn first
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    loss, _ = batch_grads(model, batch, dropout_rng)
                    check_finite(loss, model.params, epoch, step)
                adam_step(model.params, state, cfg.lr)
            total += loss
        log = EpochLog(epoch=epoch, train_loss=total / len(preps))
        if dev_preps:
            # metrics.evaluate over the prepared set
            dev = metrics_from_predictions(
                [prep.gold for prep in dev_preps],
                [model.predict_prepared(prep).label_id for prep in dev_preps])
            log.dev_accuracy = dev.accuracy
            log.dev_macro_f1 = dev.macro_f1
        history.append(log)
        if on_epoch is not None and on_epoch(log):
            break
    return history


@dataclass
class GradCheckReport:
    per_tensor: dict[str, float]  # max relative error
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(np.isfinite(v) and v < self.tolerance
                   for v in self.per_tensor.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.per_tensor, key=self.per_tensor.get)
        return name, self.per_tensor[name]


def gradcheck_model(model: Model, example, eps: float = 1e-6,
                    tolerance: float = 1e-4) -> GradCheckReport:
    """Analytic gradients of the full loss vs central differences, per tensor.

    The relative error divides the max absolute difference by
    max(|analytic|_inf, |numeric|_inf, 1e-6); the floor keeps tensors whose
    true gradient vanishes (a softmax-shift-invariant bias, say) from turning
    floating-point dust into a spurious blowup. Dropout must be off.
    """
    if model.config.dropout != 0.0:
        raise ValueError("gradcheck requires dropout == 0")
    params = model.params
    prep = model.prepare(example)
    _, grads = batch_grads(model, [prep])
    analytic_grads = {name: g.copy() for name, g in grads.items()}

    report: dict[str, float] = {}
    for name, view in params.items():
        analytic = analytic_grads[name]
        if not np.all(np.isfinite(analytic)):
            report[name] = np.inf
            continue
        original = view.copy()

        def f(candidate):
            view[...] = candidate  # a write into params.flat
            return float(model.batch_loss_var([prep]).value)

        try:
            numeric = finite_diff_grad(f, original, eps)
        finally:
            view[...] = original
        scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-6)
        report[name] = float(np.max(np.abs(analytic - numeric))) / scale
    return GradCheckReport(per_tensor=report, tolerance=tolerance)
