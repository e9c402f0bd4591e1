"""Robustness benchmark for a classical MLP vs a simulated variational
quantum classifier under seeded Gaussian input noise."""

from .data import (
    DatasetSplits,
    FeatureMatrix,
    RawDataset,
    encode_and_normalize,
    load_csv,
    make_separable,
    shuffle_and_split,
    subset,
)
from .experiment import (
    ExperimentConfig,
    Report,
    emit_report,
    run_pipeline,
)
from .metrics import (
    ConfusionMatrix,
    Curve,
    confusion,
    pr_curve,
    roc_curve,
    scalar_metrics,
)
from .mlp import MlpModel, init_mlp, mlp_gradients, mlp_scores, train_mlp
from .optim import AdamState, EpochRecord, adam_step, epoch_record, mean_hinge_loss
from .pca import PcaModel, fit_pca, project, transform_pca
from .perturb import PerturbationConfig, add_perturbation, build_adversarial_set
from .qnn import (
    QnnModel,
    build_model_circuit,
    init_params,
    parameter_shift_grad,
    qnn_scores,
    train_qnn,
)
from .simulator import (
    CircuitMetrics,
    Gate,
    QuantumCircuit,
    StateVector,
    apply_gate,
    circuit_metrics,
    encode_features,
    expectation_z,
    run_circuit,
)

__version__ = "0.1.0"
