"""Self-contained SSA-style compiler IR (the paper's LLVM-18 substrate).

This package provides the intermediate representation every Cayman pass
consumes: typed values, instructions, basic blocks, functions, modules, an
imperative builder, a printer, and a structural verifier.
"""

from .types import (
    ArrayType,
    BOOL,
    F32,
    F64,
    FloatType,
    FunctionType,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    VOID,
    VoidType,
    sizeof,
)
from .values import Argument, Constant, GlobalVariable, UndefValue, Value
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    UnaryOp,
)
from .function import BasicBlock, Function
from .module import Module
from .builder import IRBuilder
from .printer import print_function, print_module
from .parser import IRParseError, parse_module, parse_type
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "ArrayType", "BOOL", "F32", "F64", "FloatType", "FunctionType",
    "I8", "I16", "I32", "I64", "IntType", "PointerType", "Type", "VOID",
    "VoidType", "sizeof",
    "Argument", "Constant", "GlobalVariable", "UndefValue", "Value",
    "Alloca", "BinaryOp", "Branch", "Call", "Cast", "CondBranch", "FCmp",
    "GetElementPtr", "ICmp", "Instruction", "Load", "Phi", "Return",
    "Select", "Store", "UnaryOp",
    "BasicBlock", "Function", "Module", "IRBuilder",
    "print_function", "print_module",
    "IRParseError", "parse_module", "parse_type",
    "VerificationError", "verify_function", "verify_module",
]
