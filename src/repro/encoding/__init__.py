"""Bit-level encoding substrate shared by all compressors.

Modules:

- :mod:`repro.encoding.bitstream` — MSB-first bit writer/reader; every
  write is a bulk (vectorized) array operation, one per kind of field
  (raw bits, fixed width, variable width, Elias gamma).
- :mod:`repro.encoding.huffman` — canonical Huffman coding over integer
  symbol alphabets (SZ3's entropy stage).
- :mod:`repro.encoding.lz77` — greedy hash-chain LZ77 byte compressor, the
  stand-in for SZ3/SPERR's zstd lossless backend.
- :mod:`repro.encoding.range_coder` — static-model range coder, sz3's
  ``entropy="range"`` stage.
"""

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.huffman import HuffmanCodec, stream_entropy_bits
from repro.encoding.lz77 import lz77_compress, lz77_decompress

__all__ = [
    "BitReader",
    "BitWriter",
    "HuffmanCodec",
    "stream_entropy_bits",
    "lz77_compress",
    "lz77_decompress",
]
