"""adaptok: adaptive mixed-resolution token allocation.

Coarse tokens are scored for class-boundary content; only patches with
boundary evidence receive finer tokens, the mixed-resolution set is refined
with cluster attention, and per-sample compute is accounted analytically.
"""

__version__ = "0.1.0"

import ctypes
import platform


def _keep_freed_buffers():
    """Keep freed arrays in the process heap (glibc only).

    A forward allocates and frees many multi-MB arrays. By default glibc
    serves each from fresh mmap pages and hands it back to the OS on free,
    so every step faults its pages in again. Here arrays up to 32 MiB come
    from the heap, and up to 256 MiB of free heap stays mapped. Both values
    are set or neither: setting either one alone turns off glibc's dynamic
    threshold, which faults more than the default.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    # the mmap threshold is the one glibc can refuse (above its maximum)
    if mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 256 << 20)


_keep_freed_buffers()

from . import boundary, clusterattn, config, flops, geometry, stage1, stage2, tensor  # noqa: E402, F401
