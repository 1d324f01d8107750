"""Video steganography with encrypted QR payloads.

Payload images are XOR-encrypted with an ElGamal-derived keystream,
bit-permuted under a 64-bit stego key, and written into the LSBs of
integer-Haar detail coefficients and chroma samples of raw 4:2:0 video.
Extraction is bit-exact on an unmodified stego video; the attacks and
quality modules measure what noise does to that guarantee.
"""

from .attacks import AttackSpec, apply_attack, attack_video
from .bitplane import PackedPayload, QrPlane, load_qr, pack, render, unpack
from .elgamal import (
    CipherBundle,
    ElGamalPrivate,
    ElGamalPublic,
    keygen,
    stream_decrypt,
    stream_encrypt,
)
from .errors import CapacityError, CryptoError, FormatError, QrstegError, ShapeError
from .permute import Splitmix64, StegoKey, keyed_permutation
from .quality import QualityReport, capacity_bpp, mse, ssim
from .stego import (
    FrameCoder,
    FramePayload,
    Sidecar,
    StegoConfig,
    embed_video,
    extract_video,
    get_lsb,
    set_lsb,
)
from .videoio import FrameYuv420, VideoMeta, read_pgm, read_raw_yuv, read_y4m, write_pgm, write_y4m
from .wavelet import SubBands, fwd_haar_int, inv_haar_int

__version__ = "0.1.0"
