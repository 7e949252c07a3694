/* A SIGPROF sampling profiler, loaded with LD_PRELOAD.
 *
 * Where perf and gprofng collect nothing (no perf_event_open, no
 * hardware counters), the kernel's profiling timer still works: it
 * delivers SIGPROF to a running thread after every `interval` of process
 * CPU time. Each signal records the interrupted instruction pointer and
 * up to kFrames return addresses from a frame-pointer walk. At exit the
 * library writes the samples and a copy of /proc/self/maps, which
 * tools/sample_profile.sh symbolizes with addr2line.
 *
 * Environment:
 *   SAMPLE_PROFILE_OUT  output prefix (default "sample_profile"); writes
 *                       <prefix>.<pid>.samples and <prefix>.<pid>.maps
 *   SAMPLE_PROFILE_US   sampling interval in us of CPU time (default
 *                       1000); the kernel tick caps the real rate
 *
 * The .samples file is resolved against the process's own mappings, so
 * the script needs no address arithmetic: `obj ID PATH` lines name the
 * mapped objects, then one `s` line per sample lists the instruction
 * pointer and the call sites of the return addresses found, each as
 * ID:ADDRESS, where ADDRESS is what `addr2line -e PATH` takes (absolute
 * for a position-dependent executable, file-relative otherwise); `?`
 * stands for an unmapped address. The walk reads each frame through
 * process_vm_readv, so a build without frame pointers (whose rbp holds
 * data) yields short or empty walks, never a crash. x86-64 Linux only.
 *
 * Build: cc -O2 -shared -fPIC -o sample_profile.so tools/sample_profile.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum { kFrames = 5, kMaxSamples = 1 << 20 };

struct Sample {
  uintptr_t pc[1 + kFrames]; /* pc[0] = interrupted ip; 0 ends the walk */
};

static struct Sample* samples;
static unsigned long next_sample; /* reserved with an atomic add */
static pid_t owner;               /* the process that set the timer up */

/* Reads one word of this process's memory; 0 if it is not mapped. */
static uintptr_t read_word(uintptr_t addr) {
  uintptr_t value = 0;
  struct iovec local = {&value, sizeof value};
  struct iovec remote = {(void*)addr, sizeof value};
  if (process_vm_readv(owner, &local, 1, &remote, 1, 0) != sizeof value) {
    return 0;
  }
  return value;
}

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  const unsigned long i = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
  if (i < kMaxSamples) {
    const mcontext_t* mc = &((const ucontext_t*)context)->uc_mcontext;
    struct Sample* s = &samples[i];
    s->pc[0] = (uintptr_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    const uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    /* A frame record is (caller's fp, return address), and callers'
     * frames sit at higher addresses: stop at anything else. */
    for (int f = 1; f <= kFrames; ++f) {
      if (fp < sp || (fp & 7) != 0) break;
      const uintptr_t ret = read_word(fp + sizeof(uintptr_t));
      const uintptr_t up = read_word(fp);
      if (ret == 0) break;
      s->pc[f] = ret;
      if (up <= fp) break;
      fp = up;
    }
  }
  errno = saved_errno;
}

enum { kMaxMaps = 4096 };

/* One executable mapping of /proc/self/maps. */
struct Map {
  uintptr_t lo, hi, offset;
  int object; /* index into objects */
};

static struct Map maps[kMaxMaps];
static int map_count;
static char* objects[kMaxMaps];
static int is_exec[kMaxMaps]; /* ELF type EXEC: absolute addresses */
static int object_count;

static int elf_is_exec(const char* path) {
  unsigned char header[18];
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = read(fd, header, sizeof header);
  close(fd);
  return n == (ssize_t)sizeof header && memcmp(header, "\177ELF", 4) == 0 &&
         header[16] == 2 && header[17] == 0; /* e_type == ET_EXEC (LE) */
}

/* Loads the executable file mappings, copying the maps file to `copy`. */
static void load_maps(const char* copy) {
  FILE* in = fopen("/proc/self/maps", "r");
  FILE* out = fopen(copy, "w");
  char line[4096 + 256];
  while (in != NULL && fgets(line, sizeof line, in) != NULL) {
    if (out != NULL) fputs(line, out);
    unsigned long lo, hi, offset;
    char perms[8];
    int path_at = 0;
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &lo, &hi, perms, &offset,
               &path_at) < 4 ||
        perms[2] != 'x' || path_at == 0 || line[path_at] != '/' ||
        map_count == kMaxMaps) {
      continue;
    }
    line[strcspn(line, "\n")] = '\0';
    const char* path = line + path_at;
    int object = 0;
    while (object < object_count && strcmp(objects[object], path) != 0) {
      ++object;
    }
    if (object == object_count) {
      objects[object] = strdup(path);
      is_exec[object] = elf_is_exec(path);
      ++object_count;
    }
    maps[map_count++] = (struct Map){lo, hi, offset, object};
  }
  if (in != NULL) fclose(in);
  if (out != NULL) fclose(out);
}

static void write_address(FILE* out, uintptr_t address) {
  for (int m = 0; m < map_count; ++m) {
    if (address >= maps[m].lo && address < maps[m].hi) {
      const int o = maps[m].object;
      fprintf(out, "%d:%lx", o,
              (unsigned long)(is_exec[o] ? address
                                         : address - maps[m].lo +
                                               maps[m].offset));
      return;
    }
  }
  fputs("?", out);
}

__attribute__((constructor)) static void start(void) {
  owner = getpid();
  samples = mmap(NULL, sizeof(struct Sample) * kMaxSamples,
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const char* us_env = getenv("SAMPLE_PROFILE_US");
  long us = us_env != NULL ? strtol(us_env, NULL, 10) : 1000;
  if (us <= 0) us = 1000;
  struct itimerval timer;
  timer.it_interval.tv_sec = us / 1000000;
  timer.it_interval.tv_usec = us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void finish(void) {
  if (samples == NULL || getpid() != owner) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* prefix = getenv("SAMPLE_PROFILE_OUT");
  if (prefix == NULL) prefix = "sample_profile";
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.maps", prefix, (int)owner);
  load_maps(path);
  snprintf(path, sizeof path, "%s.%d.samples", prefix, (int)owner);
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  for (int o = 0; o < object_count; ++o) {
    fprintf(out, "obj %d %s\n", o, objects[o]);
  }
  unsigned long n = __atomic_load_n(&next_sample, __ATOMIC_RELAXED);
  if (n > kMaxSamples) n = kMaxSamples;
  for (unsigned long i = 0; i < n; ++i) {
    fputs("s ", out);
    write_address(out, samples[i].pc[0]);
    /* A return address points past its call: step back into the call. */
    for (int f = 1; f <= kFrames && samples[i].pc[f] != 0; ++f) {
      fputc(' ', out);
      write_address(out, samples[i].pc[f] - 1);
    }
    fputc('\n', out);
  }
  fclose(out);
}
