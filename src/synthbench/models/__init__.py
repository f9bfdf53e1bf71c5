from .design import DesignEncoding, Predictors
from .cart import CartForest, CartProblem, CartTree, fit_cart
from .linear import LinearModel, fit_ols
from .logistic import LogisticModel, fit_logistic
from .contingency import JointTable, draw_tuples, fit_joint_table

__all__ = [
    "CartForest",
    "CartProblem",
    "CartTree",
    "DesignEncoding",
    "JointTable",
    "LinearModel",
    "LogisticModel",
    "Predictors",
    "draw_tuples",
    "fit_cart",
    "fit_joint_table",
    "fit_logistic",
    "fit_ols",
]
