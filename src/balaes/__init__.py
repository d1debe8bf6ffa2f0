"""Table-based AES-128 under a balanced internal encoding, plus the
statistical evaluation harness for its computational traces."""

from .gfcore import (
    RoundKeys,
    SMatrix,
    build_s_matrix,
    gf_mul,
    rearranged_encrypt,
    reference_decrypt,
    reference_encrypt,
    s_ell,
    sbox,
)
from .binmat import (
    BitMat4,
    BitMat8,
    EncodingPair,
    assemble_M,
    derive_blacklist_F,
    derive_blacklist_W,
    linear_decode,
    linear_encode,
    sample_f,
    sample_g,
    sample_pair,
    walsh_balance_check,
)
from .nibenc import (
    CodecPair,
    NibbleCodec,
    decode_byte,
    encode_byte,
    find_candidates,
    find_round_output_candidates,
    verify_swap_balance,
)
from .tablegen import (
    EncodingSpec,
    TableSet,
    TableSetPair,
    build_q0,
    build_q1,
    build_table_pair,
    encrypt_with_tables,
    serialize_spec,
    serialize_tableset,
    size_and_lookup_report,
    verify_tableset,
)
from .cipher import (
    SelectorPolicy,
    TraceSet,
    collect_traces,
    encrypt,
    grid_plaintexts,
    select_set,
)

__version__ = "0.1.0"
