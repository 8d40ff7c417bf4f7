import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None


class OptionalBuildExt(build_ext):
    """Build the speedup extension if possible; fall back to pure Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler, broken toolchain, ...
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"warning: compiled kernels skipped ({exc}); "
              "installing with the pure-Python fallback", file=sys.stderr)


# Without Cython, build from the tracked _speedups.c generated from the .pyx
# (the Cython guide's "Distributing Cython modules"); tests/test_kernels.py
# pins the .pyx it was generated from.
if cythonize is not None:
    ext_modules = cythonize(
        [Extension("sympdec._speedups", ["src/sympdec/_speedups.pyx"])],
        compiler_directives={"language_level": "3"},
    )
else:
    ext_modules = [Extension("sympdec._speedups", ["src/sympdec/_speedups.c"])]

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
