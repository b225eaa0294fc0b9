from .checkpoint import (file_checksum, load_model, model_json,
                         params_checksum, save_model)
from .fisher import FisherDiag, fisher_diag
from .losses import (Gradients, LossSpec, backprop_from_output_grad, gradient,
                     loss_gen_penalty, loss_mae, total_loss)
from .network import (ForwardTrace, MlpParams, forward, forward_batch,
                      init_params)
from .optimizer import AdamState, adam_init, adam_step

__all__ = [
    "AdamState", "FisherDiag", "ForwardTrace", "Gradients", "LossSpec",
    "MlpParams", "adam_init", "adam_step", "backprop_from_output_grad",
    "file_checksum", "fisher_diag", "forward", "forward_batch", "gradient",
    "init_params", "load_model", "loss_gen_penalty", "loss_mae",
    "model_json", "params_checksum", "save_model", "total_loss",
]
