/*
 * CPU-time sampling profiler for LD_PRELOAD. Each SIGPROF tick of process
 * CPU time (setitimer ITIMER_PROF, all threads) records the interrupted PC
 * and its callers (backtrace()); at exit the samples and /proc/self/maps
 * go to prof.<pid>.txt in the working directory for report.py.
 *   cc -O2 -shared -fPIC -o sampler.so scripts/profile/sampler.c
 *   LD_PRELOAD=$PWD/sampler.so <program> <args>
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 32, kMaxSamples = 100000, kPeriodUs = 1000 };
typedef struct {
    _Atomic int depth; /* stored last: 0 marks an unfinished sample */
    void *pc[kDepth];
} Sample;
static Sample *samples = MAP_FAILED;
static atomic_long taken;

static void
onProf(int sig, siginfo_t *info, void *context)
{
    (void)sig, (void)info;
    const long slot = atomic_fetch_add(&taken, 1);
    if (slot >= kMaxSamples)
        return;
    const mcontext_t *mc = &((ucontext_t *)context)->uc_mcontext;
    void *leaf = (void *)mc->gregs[REG_RIP]; /* x86-64 only */
    void *frames[kDepth + 8];
    const int n = backtrace(frames, kDepth + 8);
    int skip = 0; /* frames above the interrupted PC are the handler's */
    for (; skip < n && frames[skip] != leaf; ++skip) {}
    Sample *s = &samples[slot];
    int depth = 0;
    s->pc[depth++] = leaf;
    for (int i = skip + 1; i < n && depth < kDepth; ++i)
        s->pc[depth++] = frames[i];
    atomic_store(&s->depth, depth);
}

__attribute__((constructor)) static void
start(void)
{
    samples = mmap(NULL, sizeof(Sample) * kMaxSamples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    backtrace((void *[4]){0}, 4); /* load the unwinder outside the handler */
    struct sigaction sa = {.sa_sigaction = onProf,
                           .sa_flags = SA_SIGINFO | SA_RESTART};
    const struct itimerval period = {{0, kPeriodUs}, {0, kPeriodUs}};
    if (samples != MAP_FAILED && sigaction(SIGPROF, &sa, NULL) == 0)
        setitimer(ITIMER_PROF, &period, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    setitimer(ITIMER_PROF, &(struct itimerval){{0, 0}, {0, 0}}, NULL);
    char path[64], line[4096];
    snprintf(path, sizeof(path), "prof.%d.txt", (int)getpid());
    FILE *out = samples == MAP_FAILED ? NULL : fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    const long n = taken < kMaxSamples ? taken : kMaxSamples;
    for (long i = 0; i < n; ++i)
        for (int d = 0, depth = samples[i].depth; d < depth; ++d)
            fprintf(out, "%p%c", samples[i].pc[d], d + 1 < depth ? ' ' : '\n');
    fputs("# maps\n", out);
    while (fgets(line, sizeof(line), maps))
        fputs(line, out);
    fclose(out);
}
