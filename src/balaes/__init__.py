"""Table-based AES-128 under a balanced internal encoding, plus the
statistical evaluation harness for its computational traces."""

from .tablegen import build_table_pair, encrypt_batch_with_tables, encrypt_with_tables, verify_tableset
from .cipher import SelectorPolicy, collect_traces, encrypt, select_set

__version__ = "0.1.0"
